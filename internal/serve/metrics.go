package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"psmkit/internal/obs"
	"psmkit/internal/shard"
	"psmkit/internal/stream"
)

// latencyBucket is one histogram cell of the join latency distribution.
type latencyBucket struct {
	// LE is the bucket's upper bound in milliseconds; "+Inf" on overflow.
	LE    string `json:"le"`
	Count int    `json:"count"`
}

// metricsDoc is the "psmd" section of the /metrics document.
type metricsDoc struct {
	UptimeSeconds   float64         `json:"uptime_seconds"`
	RecordsIngested int64           `json:"records_ingested"`
	OpenSessions    int             `json:"open_sessions"`
	TracesCompleted int             `json:"traces_completed"`
	Snapshots       int             `json:"snapshots"`
	Rebuilds        int             `json:"rebuilds"`
	DeltaSnapshots  int             `json:"delta_snapshots"`
	StatesPooled    int             `json:"states_pooled"`
	StatesServed    int             `json:"states_served"`
	StatesMerged    int             `json:"states_merged"`
	JoinNanos       int64           `json:"join_nanos"`
	JoinLatencyMs   []latencyBucket `json:"join_latency_ms"`
	// Join latency quantiles over the cumulative histogram, estimated by
	// linear interpolation within bucket bounds (obs.HistogramSnapshot.
	// Quantile).
	JoinP50Ms float64 `json:"join_p50_ms"`
	JoinP95Ms float64 `json:"join_p95_ms"`
	JoinP99Ms float64 `json:"join_p99_ms"`
	// SlowSessions is the top-K slowest /v1/traces sessions with their
	// per-stage wall-time attribution.
	SlowSessions []sessionTimeline `json:"slow_sessions"`
	// Shards carries the per-shard rows: one entry per shard engine with
	// its own ingest counters, live queue depth and load-shed count.
	Shards []shard.ShardMetric `json:"shards"`
}

func metricsOf(m stream.Metrics, uptime time.Duration) metricsDoc {
	doc := metricsDoc{
		UptimeSeconds:   uptime.Seconds(),
		RecordsIngested: m.RecordsIngested,
		OpenSessions:    m.OpenSessions,
		TracesCompleted: m.TracesCompleted,
		Snapshots:       m.Snapshots,
		Rebuilds:        m.Rebuilds,
		DeltaSnapshots:  m.DeltaSnapshots,
		StatesPooled:    m.StatesPooled,
		StatesServed:    m.StatesServed,
		StatesMerged:    m.StatesMerged,
		JoinNanos:       m.JoinNanos,
	}
	for i, n := range m.JoinLatency {
		le := "+Inf"
		if i < len(stream.LatencyBuckets) {
			le = fmt.Sprintf("%g", stream.LatencyBuckets[i])
		}
		doc.JoinLatencyMs = append(doc.JoinLatencyMs, latencyBucket{LE: le, Count: n})
	}
	hs := obs.HistogramSnapshot{
		Bounds: stream.LatencyBuckets,
		Counts: make([]int64, len(m.JoinLatency)),
	}
	for i, n := range m.JoinLatency {
		hs.Counts[i] = int64(n)
		hs.Count += int64(n)
	}
	doc.JoinP50Ms = hs.Quantile(0.50)
	doc.JoinP95Ms = hs.Quantile(0.95)
	doc.JoinP99Ms = hs.Quantile(0.99)
	return doc
}

// handleMetrics renders the metrics surface. The default is the
// expvar-style JSON document with the server's own "psmd" section (the
// fleet sums and the per-shard rows — see shard.Coordinator.Metrics)
// injected alongside the process-global vars (cmdline, memstats) via
// obs.WriteExpvarJSON — each server renders its own counters, so
// several servers in one process never contend over the global expvar
// namespace. ?format=prometheus serves the coordinator's registry, the
// fleet's summed ingest counters included, in the Prometheus text
// exposition format instead.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		doc := metricsOf(s.Metrics(), time.Since(s.start))
		doc.SlowSessions = s.slowSessions()
		doc.Shards = s.co.ShardMetrics()
		//psmlint:ignore err-drop response already committed; a write error here means the client left
		obs.WriteExpvarJSON(w, map[string]interface{}{
			"psmd":          doc,
			"psmd_registry": s.co.Registry().Snapshot(),
		})
	case "prometheus":
		reg := s.co.Registry()
		reg.Gauge("psmd_uptime_seconds").Set(time.Since(s.start).Seconds())
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		//psmlint:ignore err-drop response already committed; a write error here means the client left
		reg.WritePrometheus(w)
	default:
		http.Error(w, fmt.Sprintf("unknown format %q (json|prometheus)", format), http.StatusBadRequest)
	}
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	//psmlint:ignore err-drop response already committed; a write error here means the client left
	json.NewEncoder(w).Encode(v)
}
