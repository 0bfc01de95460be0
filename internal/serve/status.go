package serve

import (
	"net/http"
	"sort"
	"time"

	"psmkit/internal/obs"
	"psmkit/internal/shard"
)

// maxSlowSessions bounds the top-K slow-session table.
const maxSlowSessions = 8

// sessionTimeline is one upload's stage-time attribution: where the
// wall time of a /v1/traces request went. Times are nanoseconds; Trace
// is -1 for sessions that aborted or failed before completing.
type sessionTimeline struct {
	Session  int64 `json:"session"`
	Trace    int   `json:"trace"`
	Records  int   `json:"records"`
	ScanNS   int64 `json:"scan_ns"`
	ParseNS  int64 `json:"parse_ns"`
	ReduceNS int64 `json:"reduce_ns"`
	JoinNS   int64 `json:"join_ns"`
	TotalNS  int64 `json:"total_ns"`
}

// recordTimeline folds one finished session into the top-K
// slowest-session table (sorted by total wall time, descending).
func (s *Server) recordTimeline(tl *sessionTimeline) {
	s.tlMu.Lock()
	defer s.tlMu.Unlock()
	s.slow = append(s.slow, *tl)
	sort.Slice(s.slow, func(i, j int) bool {
		if s.slow[i].TotalNS != s.slow[j].TotalNS {
			return s.slow[i].TotalNS > s.slow[j].TotalNS
		}
		return s.slow[i].Session < s.slow[j].Session
	})
	if len(s.slow) > maxSlowSessions {
		s.slow = s.slow[:maxSlowSessions]
	}
}

// slowSessions returns a copy of the top-K slow-session table.
func (s *Server) slowSessions() []sessionTimeline {
	s.tlMu.Lock()
	defer s.tlMu.Unlock()
	return append([]sessionTimeline(nil), s.slow...)
}

// statusWindow reports one windowed latency distribution: the quantiles
// of the last WindowSeconds of observations. Burn is the measured p99
// over its objective (0 when no objective is configured); a burn above
// 1 means the objective is being violated right now.
type statusWindow struct {
	WindowSeconds float64 `json:"window_seconds"`
	Count         int64   `json:"count"`
	P50Ms         float64 `json:"p50_ms"`
	P95Ms         float64 `json:"p95_ms"`
	P99Ms         float64 `json:"p99_ms"`
	Burn          float64 `json:"burn"`
}

func windowStatus(snap obs.HistogramSnapshot, window time.Duration, objectiveP99 float64) statusWindow {
	w := statusWindow{
		WindowSeconds: window.Seconds(),
		Count:         snap.Count,
		P50Ms:         snap.Quantile(0.50),
		P95Ms:         snap.Quantile(0.95),
		P99Ms:         snap.Quantile(0.99),
	}
	if objectiveP99 > 0 {
		w.Burn = w.P99Ms / objectiveP99
	}
	return w
}

// statusErrors reports the windowed 5xx error rate over the /v1/
// surface and its burn against the configured objective.
type statusErrors struct {
	WindowSeconds float64 `json:"window_seconds"`
	Requests      int64   `json:"requests"`
	Errors        int64   `json:"errors"`
	Rate          float64 `json:"rate"`
	Burn          float64 `json:"burn"`
}

// statusEngine is the engine watermark block of the status document.
type statusEngine struct {
	SessionsOpen    int     `json:"sessions_open"`
	TracesCompleted int     `json:"traces_completed"`
	RecordsIngested int64   `json:"records_ingested"`
	StatesPooled    int     `json:"states_pooled"`
	StatesServed    int     `json:"states_served"`
	Snapshots       int     `json:"snapshots"`
	Rebuilds        int     `json:"rebuilds"`
	DeltaSnapshots  int     `json:"delta_snapshots"`
	QueueDepth      float64 `json:"queue_depth"`
}

// statusFlight summarizes the flight recorder's fill state.
type statusFlight struct {
	Capacity int    `json:"capacity"`
	Recorded uint64 `json:"recorded"`
	Dropped  uint64 `json:"dropped"`
}

// statusObjectives echoes the configured objectives (0 = disabled).
type statusObjectives struct {
	IngestP99Ms float64 `json:"ingest_p99_ms"`
	ErrorRate   float64 `json:"error_rate"`
}

// statusDoc is the GET /v1/status document.
type statusDoc struct {
	Ready          bool             `json:"ready"`
	ModelAvailable bool             `json:"model_available"`
	SLOOK          bool             `json:"slo_ok"`
	UptimeSeconds  float64          `json:"uptime_seconds"`
	Objectives     statusObjectives `json:"objectives"`
	Ingest         statusWindow     `json:"ingest"`
	Join           statusWindow     `json:"join"`
	Errors         statusErrors     `json:"errors"`
	Engine         statusEngine     `json:"engine"`
	// Shards carries the per-shard rows: the Engine block holds the
	// fleet sums, and each row here attributes them to its shard engine
	// together with the live queue depth and the load-shed count.
	Shards       []shard.ShardMetric `json:"shards"`
	SlowSessions []sessionTimeline   `json:"slow_sessions"`
	Flight       statusFlight        `json:"flight"`
}

// handleStatus serves the SLO health surface: readiness, windowed
// latency quantiles for ingest and join, the windowed error-rate burn
// against the configured objectives, engine watermarks, the top-K
// slow-session table, and the flight recorder's fill state. The
// endpoint always answers 200 — health is in the body (slo_ok), not
// the status code, so a probe can distinguish "unhealthy" from "down".
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	m := s.Metrics()
	reg := s.co.Registry()
	doc := statusDoc{
		Ready:          true,
		ModelAvailable: m.TracesCompleted > 0,
		UptimeSeconds:  time.Since(s.start).Seconds(),
		Objectives: statusObjectives{
			IngestP99Ms: s.cfg.SLO.IngestP99Ms,
			ErrorRate:   s.cfg.SLO.ErrorRate,
		},
		Ingest: windowStatus(s.hIngestWin.Snapshot(), s.hIngestWin.WindowDuration(), s.cfg.SLO.IngestP99Ms),
		// The coordinator's join window has the default geometry (see
		// shard.New); no p99 objective is configured for joins.
		Join: windowStatus(s.co.JoinLatencyWindow(), obs.DefaultWindowInterval*time.Duration(obs.DefaultWindowSlots), 0),
		Engine: statusEngine{
			SessionsOpen:    m.OpenSessions,
			TracesCompleted: m.TracesCompleted,
			RecordsIngested: m.RecordsIngested,
			StatesPooled:    m.StatesPooled,
			StatesServed:    m.StatesServed,
			Snapshots:       m.Snapshots,
			Rebuilds:        m.Rebuilds,
			DeltaSnapshots:  m.DeltaSnapshots,
			QueueDepth:      reg.Gauge("pipeline_pool_queue_depth").Value(),
		},
		Shards:       s.co.ShardMetrics(),
		SlowSessions: s.slowSessions(),
		Flight: statusFlight{
			Capacity: s.flight.Capacity(),
			Recorded: s.flight.Recorded(),
			Dropped:  s.flight.Dropped(),
		},
	}
	doc.Errors = statusErrors{
		WindowSeconds: s.wReqs.WindowDuration().Seconds(),
		Requests:      s.wReqs.Sum(),
		Errors:        s.wErrs.Sum(),
	}
	if doc.Errors.Requests > 0 {
		doc.Errors.Rate = float64(doc.Errors.Errors) / float64(doc.Errors.Requests)
	}
	if s.cfg.SLO.ErrorRate > 0 {
		doc.Errors.Burn = doc.Errors.Rate / s.cfg.SLO.ErrorRate
	}
	doc.SLOOK = doc.Ingest.Burn <= 1 && doc.Errors.Burn <= 1
	writeJSON(w, http.StatusOK, doc)
}

// handleFlight dumps the flight recorder as NDJSON: the most recent
// span and log events ordered by sequence number. Serving the dump
// records nothing itself, so a quiesced daemon returns byte-identical
// dumps on repeated fetches.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	//psmlint:ignore err-drop response already committed; a write error here means the client left
	s.flight.WriteNDJSON(w)
}
