// Package serve is the HTTP face of the streaming engine: it exposes
// trace ingestion, live model export, co-simulation power estimation and
// operational metrics over a small REST surface, reusing the batch flow's
// building blocks — the internal/stream engine for ingestion and joins,
// internal/check as the gate a model must pass before it leaves the
// process, and internal/powersim for estimation.
//
// Endpoints:
//
//	POST /v1/traces   — ingest one trace as an NDJSON stream (wire.go
//	                    format: header line, then one record per instant).
//	                    Concurrent uploads are independent sessions; a
//	                    dropped connection aborts its session without
//	                    touching the model.
//	GET  /v1/model    — export the live model (?format=json|dot), rebuilt
//	                    incrementally from completed sessions and verified
//	                    by the psmlint rule set before serving.
//	POST /v1/estimate — co-simulate an NDJSON functional stream against
//	                    the live model and return the power estimate
//	                    (and the MRE when reference powers are present).
//	GET  /v1/provenance — the merge-provenance audit log of the live
//	                    model as NDJSON: one Section IV-A mergeability
//	                    decision per line, canonically ordered (equal to
//	                    `psmreport provenance` over the same traces).
//	GET  /metrics     — expvar-style JSON: ingestion counters, join
//	                    latency histogram, memstats
//	                    (?format=prometheus for the text exposition).
//	GET  /debug/pprof — the standard profiling handlers.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"psmkit/internal/check"
	"psmkit/internal/logic"
	"psmkit/internal/obs"
	"psmkit/internal/powersim"
	"psmkit/internal/psm"
	"psmkit/internal/shard"
	"psmkit/internal/stats"
	"psmkit/internal/stream"
	"psmkit/internal/trace"
)

// Config tunes the server.
type Config struct {
	// Stream configures the ingestion engine (policies, worker budget,
	// per-session record bound, open-session cap). Under sharding
	// (Shards > 1) every shard engine gets this configuration;
	// MaxOpenSessions then caps each shard, not the fleet.
	Stream stream.Config
	// Shards selects the sharded ingest fan-out: > 1 partitions sessions
	// across that many engines behind a shard.Coordinator (consistent
	// hash on the session id, one reducer goroutine per shard, bounded
	// queues with 429 + Retry-After load-shed). The served model stays
	// byte-identical to the single-engine path; ≤ 1 runs one engine
	// in-handler, exactly as before.
	Shards int
	// ShardQueueDepth bounds each shard's task queue in batches;
	// ≤ 0 selects the shard package default (512).
	ShardQueueDepth int
	// ShardEnqueueTimeout is how long an append may block on a saturated
	// shard before the upload is shed with 429 + Retry-After; ≤ 0
	// selects the shard package default (2 s).
	ShardEnqueueTimeout time.Duration
	// RetryAfter is the back-off hint attached to admission-control 429s
	// of the single-engine path (open-session cap); ≤ 0 selects 1 s.
	// Sharded load-shed responses use the shard's enqueue timeout
	// instead — that is how long the queue actually stayed full.
	RetryAfter time.Duration
	// MaxLineBytes bounds one NDJSON line of an upload; ≤ 0 selects 1 MiB.
	MaxLineBytes int
	// IngestBatch is how many records the trace ingest path accumulates
	// before handing them to Session.AppendBatch; ≤ 0 selects 256. Larger
	// batches amortize the atom-signature reduction, smaller ones bound
	// the memory a slow upload pins.
	IngestBatch int
	// CheckOptions parameterizes the model verifier gating GET /v1/model.
	CheckOptions check.Options
	// Sim parameterizes the estimation tracker.
	Sim powersim.Config
	// Tracer, when set, attaches to every request context: ingestion and
	// snapshot spans stream to it as NDJSON (psmd -trace). When nil the
	// server still runs an internal tracer (summary-only, no event
	// writer) so the always-on flight recorder sees every span.
	Tracer *obs.Tracer
	// Flight, when set, is the flight recorder the server's tracer and
	// handlers capture into; nil builds a private ring of FlightEntries
	// slots. Either way GET /debug/flight serves it.
	Flight *obs.Flight
	// FlightEntries sizes the private flight ring when Flight is nil;
	// ≤ 0 selects obs.DefaultFlightEntries.
	FlightEntries int
	// Log receives the server's structured events (upload failures,
	// verification failures). A nil logger drops them — the flight
	// recorder still sees span history.
	Log *obs.Logger
	// SLO configures the objectives GET /v1/status burns against.
	SLO SLOConfig
}

// SLOConfig holds the service-level objectives of the status surface.
// Zero values disable the corresponding burn computation.
type SLOConfig struct {
	// IngestP99Ms is the windowed p99 ingest-latency objective in
	// milliseconds (psmd -slo-ingest-p99).
	IngestP99Ms float64
	// ErrorRate is the windowed 5xx error-rate objective as a fraction
	// of /v1/ requests (psmd -slo-error-rate).
	ErrorRate float64
}

// DefaultConfig returns serving-grade defaults.
func DefaultConfig() Config {
	return Config{
		Stream:       stream.DefaultConfig(),
		CheckOptions: check.DefaultOptions(),
		Sim:          powersim.DefaultConfig(),
	}
}

// Server routes the endpoints to a streaming engine — or, when
// cfg.Shards > 1, to a shard.Coordinator running several of them as one
// logical model. Exactly one of eng and co is set.
type Server struct {
	cfg    Config
	eng    *stream.Engine
	co     *shard.Coordinator
	start  time.Time
	tracer *obs.Tracer
	flight *obs.Flight
	log    *obs.Logger

	// SLO accounting over the /v1/ surface (middleware-maintained).
	mReqs      *obs.Counter
	mErrs      *obs.Counter
	wReqs      *obs.WindowedCounter
	wErrs      *obs.WindowedCounter
	hIngestWin *obs.WindowedHistogram

	// Per-session ingest timelines: a top-K slow-session table.
	nextSession atomic.Int64
	tlMu        sync.Mutex
	slow        []sessionTimeline
}

// New builds a server around a fresh engine. Runtime diagnostics are
// always on: every request runs under a tracer (the configured one, or
// an internal summary-only tracer), every ended span lands in the
// flight recorder, and the /v1/ middleware keeps the windowed SLO
// instruments current.
func New(cfg Config) *Server {
	s := &Server{cfg: cfg, start: time.Now(), log: cfg.Log}
	if cfg.Shards > 1 {
		s.co = shard.New(shard.Config{
			Shards:         cfg.Shards,
			Stream:         cfg.Stream,
			QueueDepth:     cfg.ShardQueueDepth,
			EnqueueTimeout: cfg.ShardEnqueueTimeout,
		})
	} else {
		s.eng = stream.NewEngine(cfg.Stream)
	}
	s.flight = cfg.Flight
	if s.flight == nil {
		s.flight = obs.NewFlight(cfg.FlightEntries)
	}
	s.tracer = cfg.Tracer
	if s.tracer == nil {
		s.tracer = obs.NewTracer(nil)
	}
	reg := s.registry()
	s.tracer.SetFlight(s.flight)
	s.tracer.SetSpanWindow(reg.Window("psmd_span_ms_window", stream.LatencyBuckets, obs.DefaultWindowInterval, obs.DefaultWindowSlots))
	s.mReqs = reg.Counter("psmd_requests_total")
	s.mErrs = reg.Counter("psmd_errors_total")
	s.wReqs = reg.WindowCounter("psmd_requests_window", obs.DefaultWindowInterval, obs.DefaultWindowSlots)
	s.wErrs = reg.WindowCounter("psmd_errors_window", obs.DefaultWindowInterval, obs.DefaultWindowSlots)
	s.hIngestWin = reg.Window("psmd_ingest_latency_ms_window", stream.LatencyBuckets, obs.DefaultWindowInterval, obs.DefaultWindowSlots)
	return s
}

// Flight exposes the server's flight recorder (psmd's SIGQUIT and
// crash-path dumps).
func (s *Server) Flight() *obs.Flight { return s.flight }

// Engine exposes the underlying engine (tests, cmd wiring). It is nil
// under sharding — use Coordinator there, or Metrics for the counters.
func (s *Server) Engine() *stream.Engine { return s.eng }

// Coordinator exposes the shard coordinator (nil when Shards ≤ 1).
func (s *Server) Coordinator() *shard.Coordinator { return s.co }

// The two backends expose the same model/metrics surface; these
// accessors pick the live one so every handler is backend-agnostic.

func (s *Server) registry() *obs.Registry {
	if s.co != nil {
		return s.co.Registry()
	}
	return s.eng.Registry()
}

func (s *Server) snapshot(ctx context.Context) (*psm.Model, error) {
	if s.co != nil {
		return s.co.Snapshot(ctx)
	}
	return s.eng.Snapshot(ctx)
}

func (s *Server) provenance(ctx context.Context) ([]obs.MergeDecision, error) {
	if s.co != nil {
		return s.co.Provenance(ctx)
	}
	return s.eng.Provenance(ctx)
}

func (s *Server) inputCols() []int {
	if s.co != nil {
		return s.co.InputCols()
	}
	return s.eng.InputCols()
}

func (s *Server) joinWindow() obs.HistogramSnapshot {
	if s.co != nil {
		return s.co.JoinLatencyWindow()
	}
	return s.eng.JoinLatencyWindow()
}

// Metrics returns the backend's aggregated counters (the fleet sum
// under sharding; see shard.Coordinator.Metrics).
func (s *Server) Metrics() stream.Metrics {
	if s.co != nil {
		return s.co.Metrics()
	}
	return s.eng.Metrics()
}

// ShardMetrics returns the per-shard rows (nil when not sharded).
func (s *Server) ShardMetrics() []shard.ShardMetric {
	if s.co == nil {
		return nil
	}
	return s.co.ShardMetrics()
}

// Drain is the graceful-shutdown barrier, called after the HTTP server
// has stopped accepting requests: under sharding it flushes every shard
// queue into the engines — so the final metrics and any final snapshot
// cover everything acknowledged — and stops the shard workers. The
// single-engine path has nothing queued and nothing to stop.
func (s *Server) Drain(ctx context.Context) error {
	if s.co == nil {
		return nil
	}
	err := s.co.Flush(ctx)
	s.co.Close()
	return err
}

// Handler returns the route table. Every request context carries the
// server's tracer, so the engine's spans (ingest, snapshot, simplify,
// collapse) report per request and land in the flight recorder; the
// /v1/ surface additionally runs under the SLO middleware, which
// maintains the windowed request/error counters and the windowed
// ingest-latency histogram /v1/status reports from.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/traces", s.handleTraces)
	mux.HandleFunc("/v1/model", s.handleModel)
	mux.HandleFunc("/v1/estimate", s.handleEstimate)
	mux.HandleFunc("/v1/provenance", s.handleProvenance)
	mux.HandleFunc("/v1/status", s.handleStatus)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/flight", s.handleFlight)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r = r.WithContext(obs.WithTracer(r.Context(), s.tracer))
		// The status and dump surfaces stay outside the SLO accounting
		// and create no spans of their own: probing the diagnostics must
		// not perturb them (a quiesced flight dump stays byte-stable no
		// matter how often it is fetched).
		if !strings.HasPrefix(r.URL.Path, "/v1/") || r.URL.Path == "/v1/status" {
			mux.ServeHTTP(w, r)
			return
		}
		begin := time.Now()
		// Accounting runs at response-commit time — before the first byte
		// reaches the client — so a client that has its answer in hand and
		// immediately probes /v1/status always sees its own request counted.
		sw := &statusWriter{ResponseWriter: w, commit: func(code int) {
			s.mReqs.Inc()
			s.wReqs.Add(1)
			if code >= http.StatusInternalServerError {
				s.mErrs.Inc()
				s.wErrs.Add(1)
			}
			if r.URL.Path == "/v1/traces" {
				s.hIngestWin.Observe(float64(time.Since(begin).Nanoseconds()) / 1e6)
			}
		}}
		mux.ServeHTTP(sw, r)
		// The handler never wrote — the client vanished mid-upload. Count
		// the request, but not as a server failure.
		if sw.code == 0 {
			sw.commit(0)
		}
	})
}

// statusWriter captures the response status code for SLO accounting and
// fires the commit hook exactly once, just before the response commits.
type statusWriter struct {
	http.ResponseWriter
	code   int
	commit func(code int)
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
		w.commit(code)
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
		w.commit(w.code)
	}
	return w.ResponseWriter.Write(p)
}

// ingestResult is the response of a completed upload. Trace is the
// backend-local completion index (shard-local under sharding, where
// Shard identifies the engine that owns the session).
type ingestResult struct {
	Trace   int  `json:"trace"`
	Records int  `json:"records"`
	Shard   *int `json:"shard,omitempty"`
}

// ingestError maps an ingest-path failure onto its HTTP status.
// Admission-control and load-shed rejections are 429s carrying a
// Retry-After hint: the shard's enqueue timeout when a queue shed the
// upload (that is how long it actually stayed full), the configured
// hint when an engine's open-session cap rejected it. Everything else
// is the client's malformed stream — 400.
func (s *Server) ingestError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	var sat *shard.SaturatedError
	switch {
	case errors.As(err, &sat):
		code = http.StatusTooManyRequests
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(sat.RetryAfter)))
	case errors.Is(err, stream.ErrSessionCap):
		code = http.StatusTooManyRequests
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.RetryAfter)))
	}
	http.Error(w, err.Error(), code)
}

// retryAfterSeconds renders a back-off hint as whole seconds, rounding
// up and clamping to at least 1 (the smallest honest Retry-After).
func retryAfterSeconds(d time.Duration) int {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// handleTraces ingests one NDJSON trace stream as a session. The request
// context cancels with the connection, so a client disconnect surfaces as
// a body read error and the session aborts — nothing partial reaches the
// model.
//
// This is the hot ingest path: records are line-scanned zero-copy
// (stream.Scanner), their valuations parsed into two alternating
// logic.Arenas — the engine keeps each batch's last row as input-HD
// history for one more batch, so the arena a batch used is recycled only
// after the NEXT batch lands — and appended IngestBatch records at a
// time (Session.AppendBatch).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	begin := time.Now()
	_, span := obs.Start(r.Context(), "ingest")
	defer span.End()
	sc := stream.NewScanner(r.Body, s.cfg.MaxLineBytes)
	h, err := sc.ScanHeader()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sigs, err := h.Schema()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if s.co != nil {
		s.handleTracesSharded(w, r, begin, span, sc, sigs)
		return
	}
	sess, err := s.eng.Open(sigs)
	if err != nil {
		s.log.Warn("session rejected", obs.KV("err", err.Error()))
		s.ingestError(w, err)
		return
	}

	// The session timeline attributes this upload's wall time to its
	// stages (scan / parse / reduce / join); the top-K slowest feed the
	// /metrics and /v1/status slow-session tables. Aborted sessions keep
	// Trace = -1. Recording rides the response commit (the same
	// before-the-first-byte discipline as the SLO middleware), so a
	// client holding its ack already finds its session in the tables;
	// the defer covers sessions whose client vanished before a response.
	tl := &sessionTimeline{Session: s.nextSession.Add(1), Trace: -1}
	sw := &statusWriter{ResponseWriter: w, commit: func(int) {
		tl.TotalNS = time.Since(begin).Nanoseconds()
		s.recordTimeline(tl)
	}}
	w = sw
	defer func() {
		if sw.code == 0 {
			sw.commit(0)
		}
	}()

	batch := s.cfg.IngestBatch
	if batch <= 0 {
		batch = 256
	}
	var (
		arenas [2]logic.Arena
		epoch  int
		raw    stream.RawRecord
		rows   = make([][]logic.Vector, 0, batch)
		powers = make([]float64, 0, batch)
		rowMem = make([]logic.Vector, batch*len(sigs))
	)
	flush := func() error {
		if len(rows) == 0 {
			return nil
		}
		t0 := time.Now()
		err := sess.AppendBatch(rows, powers)
		tl.ReduceNS += time.Since(t0).Nanoseconds()
		tl.Records += len(rows)
		rows, powers = rows[:0], powers[:0]
		epoch++
		return err
	}
	for {
		if err := r.Context().Err(); err != nil {
			sess.Abort()
			return // connection is gone; no response reaches the client
		}
		t0 := time.Now()
		err := sc.ScanRecord(&raw)
		t1 := time.Now()
		tl.ScanNS += t1.Sub(t0).Nanoseconds()
		if err == io.EOF {
			break
		}
		if err != nil {
			sess.Abort()
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if raw.P == nil {
			sess.Abort()
			http.Error(w, fmt.Sprintf("stream: record %d: training records need a power value \"p\"", sess.Rows()+len(rows)+1),
				http.StatusBadRequest)
			return
		}
		a := &arenas[epoch&1]
		if len(rows) == 0 {
			a.Reset()
		}
		k := len(rows) * len(sigs)
		row, err := stream.DecodeRowArena(sigs, &raw, a, rowMem[k:k:k+len(sigs)])
		tl.ParseNS += time.Since(t1).Nanoseconds()
		if err != nil {
			sess.Abort()
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		rows = append(rows, row)
		powers = append(powers, *raw.P)
		if len(rows) == batch {
			if err := flush(); err != nil {
				sess.Abort()
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
		}
	}
	if err := flush(); err != nil {
		sess.Abort()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	n := sess.Rows()
	t0 := time.Now()
	idx, err := sess.Close()
	tl.JoinNS += time.Since(t0).Nanoseconds()
	if err != nil {
		s.log.Warn("session close failed", obs.KV("err", err.Error()))
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	tl.Trace = idx
	span.SetAttr("trace", idx)
	span.SetAttr("records", n)
	writeJSON(w, http.StatusOK, ingestResult{Trace: idx, Records: n})
}

// handleTracesSharded is the sharded twin of the ingest loop: the
// handler only frames raw NDJSON lines into batches and hands them to
// the session's shard (shard.Session.AppendLines transfers buffer
// ownership); the shard's reducer goroutine does the parse and the
// atom-signature reduction off the request path. The optional
// ?session= query parameter names the session for routing — uploads
// sharing an id land on the same shard; absent, the coordinator
// assigns one.
func (s *Server) handleTracesSharded(w http.ResponseWriter, r *http.Request, begin time.Time, span *obs.Span, sc *stream.Scanner, sigs []trace.Signal) {
	sess, err := s.co.Open(r.Context(), r.URL.Query().Get("session"), sigs)
	if err != nil {
		s.log.Warn("session rejected", obs.KV("err", err.Error()))
		s.ingestError(w, err)
		return
	}

	// Same timeline discipline as the single-engine path, but parse and
	// reduce run on the shard worker: the handler's wall time splits into
	// scan (framing) and join (the Close round-trip, which rides behind
	// everything queued for the shard).
	tl := &sessionTimeline{Session: s.nextSession.Add(1), Trace: -1}
	sw := &statusWriter{ResponseWriter: w, commit: func(int) {
		tl.TotalNS = time.Since(begin).Nanoseconds()
		s.recordTimeline(tl)
	}}
	w = sw
	defer func() {
		if sw.code == 0 {
			sw.commit(0)
		}
	}()

	batch := s.cfg.IngestBatch
	if batch <= 0 {
		batch = 256
	}
	var (
		buf       []byte
		records   int
		firstLine int
	)
	flush := func() error {
		if records == 0 {
			return nil
		}
		err := sess.AppendLines(buf, records, firstLine)
		tl.Records += records
		// Ownership of buf moved to the shard; the next batch allocates.
		buf, records = nil, 0
		return err
	}
	for {
		if err := r.Context().Err(); err != nil {
			sess.Abort()
			return // connection is gone; no response reaches the client
		}
		t0 := time.Now()
		line, err := sc.Line()
		tl.ScanNS += time.Since(t0).Nanoseconds()
		if err == io.EOF {
			break
		}
		if err != nil {
			sess.Abort()
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if records == 0 {
			firstLine = sc.Lines()
			buf = make([]byte, 0, batch*(len(line)+16))
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
		records++
		if records == batch {
			if err := flush(); err != nil {
				sess.Abort()
				s.ingestError(w, err)
				return
			}
		}
	}
	if err := flush(); err != nil {
		sess.Abort()
		s.ingestError(w, err)
		return
	}
	t0 := time.Now()
	local, n, err := sess.Close(r.Context())
	tl.JoinNS += time.Since(t0).Nanoseconds()
	if err != nil {
		s.log.Warn("session close failed", obs.KV("err", err.Error()))
		s.ingestError(w, err)
		return
	}
	tl.Trace = local
	shardIdx := sess.Shard()
	span.SetAttr("trace", local)
	span.SetAttr("records", n)
	span.SetAttr("shard", shardIdx)
	writeJSON(w, http.StatusOK, ingestResult{Trace: local, Records: n, Shard: &shardIdx})
}

// handleModel exports the live model after the psmlint rule set clears
// it: a model that fails verification is a pipeline bug and must not
// leave the process looking like a result.
func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	m, err := s.snapshot(r.Context())
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, stream.ErrNoTraces) {
			code = http.StatusNotFound
		}
		if errors.Is(err, r.Context().Err()) && r.Context().Err() != nil {
			return
		}
		http.Error(w, err.Error(), code)
		return
	}
	rep := check.VerifyPSM(m, "live", s.cfg.CheckOptions)
	if rep.HasErrors() {
		s.log.Error("live model failed verification", obs.KV("errors", rep.Count(check.Error)))
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(w, "live model failed verification (%d errors):\n", rep.Count(check.Error))
		//psmlint:ignore err-drop response already committed; a write error here means the client left
		rep.Write(w)
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		//psmlint:ignore err-drop response already committed; a write error here means the client left
		m.WriteJSON(w)
	case "dot":
		w.Header().Set("Content-Type", "text/vnd.graphviz")
		//psmlint:ignore err-drop response already committed; a write error here means the client left
		m.WriteDOT(w, "psm")
	default:
		http.Error(w, fmt.Sprintf("unknown format %q (json|dot)", format), http.StatusBadRequest)
	}
}

// handleProvenance streams the merge-provenance audit log of the live
// model as NDJSON, one mergeability decision per line — the same
// decisions, in the same canonical order, as `psmreport provenance`
// over the traces ingested so far (the parity is pinned by test).
func (s *Server) handleProvenance(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	ds, err := s.provenance(r.Context())
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, stream.ErrNoTraces) {
			code = http.StatusNotFound
		}
		http.Error(w, err.Error(), code)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	//psmlint:ignore err-drop response already committed; a write error here means the client left
	obs.WriteDecisions(w, ds)
}

// sameSignals reports the first difference between an upload's schema
// and the model's, or nil when they are equal.
func sameSignals(got, want []trace.Signal) error {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Errorf("stream: signal %d is %q width %d, the model's is %q width %d",
				i, got[i].Name, got[i].Width, want[i].Name, want[i].Width)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("stream: upload declares %d signals, the model has %d", len(got), len(want))
	}
	return nil
}

// estimateResult is the response of a co-simulation run.
type estimateResult struct {
	Instants  int       `json:"instants"`
	MeanPower float64   `json:"mean_power"`
	Estimates []float64 `json:"estimates,omitempty"`
	// MRE is present when the uploaded records carried reference powers.
	MRE *float64 `json:"mre,omitempty"`
	// WSP and UnsyncedInstants quantify tracking quality (Section V).
	WSP              float64 `json:"wsp"`
	Predictions      int     `json:"predictions"`
	WrongPredictions int     `json:"wrong_predictions"`
	UnsyncedInstants int     `json:"unsynced_instants"`
}

// handleEstimate co-simulates an uploaded functional stream against the
// current model snapshot. Records may omit the power value; when all
// carry one, the MRE against the upload is reported. The upload's
// schema must be the model's: the co-simulation evaluates the model's
// atoms on each row by column, so any other schema is a 400 naming the
// first mismatch.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	m, err := s.snapshot(r.Context())
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, stream.ErrNoTraces) {
			code = http.StatusNotFound
		}
		http.Error(w, err.Error(), code)
		return
	}

	sc := stream.NewScanner(r.Body, s.cfg.MaxLineBytes)
	h, err := sc.ScanHeader()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sigs, err := h.Schema()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := sameSignals(sigs, m.Dict.Signals); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sim := powersim.New(m, s.inputCols(), s.cfg.Sim)
	var (
		raw       stream.RawRecord
		row       []logic.Vector
		estimates []float64
		refs      []float64
		allRef    = true
		total     float64
		// The simulator keeps the previous row as its sync history, so
		// each record's vectors must outlive one Step: alternate two
		// arenas, recycling the one whose rows are two steps old.
		arenas [2]logic.Arena
	)
	for {
		err := sc.ScanRecord(&raw)
		if err == io.EOF {
			break
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		a := &arenas[len(estimates)&1]
		a.Reset()
		row, err = stream.DecodeRowArena(sigs, &raw, a, row[:0])
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		est := sim.Step(row)
		estimates = append(estimates, est)
		total += est
		if raw.P != nil {
			refs = append(refs, *raw.P)
		} else {
			allRef = false
		}
	}
	if len(estimates) == 0 {
		http.Error(w, "stream: no records to estimate", http.StatusBadRequest)
		return
	}
	res := sim.Result()
	out := estimateResult{
		Instants:         len(estimates),
		MeanPower:        total / float64(len(estimates)),
		Estimates:        estimates,
		WSP:              res.WSP(),
		Predictions:      res.Predictions,
		WrongPredictions: res.WrongPredictions,
		UnsyncedInstants: res.UnsyncedInstants,
	}
	if allRef {
		mre := stats.MeanRelativeError(estimates, refs)
		out.MRE = &mre
	}
	writeJSON(w, http.StatusOK, out)
}
