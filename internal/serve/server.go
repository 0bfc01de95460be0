// Package serve is psmd's HTTP face: it exposes trace ingestion, live
// model export, co-simulation power estimation and operational metrics
// over a small REST surface. Every server serves through one
// shard.Coordinator — one shard unless Config.Shards asks for more —
// whose shard workers parse and reduce the uploads and whose snapshot
// joins them into the live model; internal/check is the gate a model
// must pass before it leaves the process, and internal/powersim runs
// the estimation.
//
// Endpoints:
//
//	POST /v1/traces   — ingest one trace as an NDJSON stream (wire.go
//	                    format: header line, then one record per instant).
//	                    Concurrent uploads are independent sessions; a
//	                    dropped connection aborts its session without
//	                    touching the model. The ack names the session's
//	                    shard and its trace index there.
//	GET  /v1/model    — export the live model (?format=json|dot), rebuilt
//	                    incrementally from completed sessions and verified
//	                    by the psmlint rule set before serving. Each model
//	                    generation is built, verified and encoded once; the
//	                    JSON body carries a strong ETag and answers
//	                    If-None-Match with 304.
//	POST /v1/estimate — co-simulate an NDJSON functional stream against
//	                    the live model, once it has passed the same
//	                    verification, and return the power estimate
//	                    (and the MRE when reference powers are present).
//	GET  /v1/provenance — the merge-provenance audit log of the live
//	                    model as NDJSON: one Section IV-A mergeability
//	                    decision per line, canonically ordered (equal to
//	                    `psmgen -provenance` over the same traces).
//	GET  /v1/status   — SLO health: windowed quantiles, burn, watermarks,
//	                    one row per shard, the slow-session table.
//	GET  /metrics     — expvar-style JSON: ingestion counters, join
//	                    latency histogram, one row per shard, memstats
//	                    (?format=prometheus for the text exposition).
//	GET  /debug/pprof — the standard profiling handlers.
package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc64"
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
	// The embedded shard.Config goes to the server's coordinator as is.
	// Its Stream configures every shard engine (policies, worker budget,
	// per-session record bound, open-session cap), so MaxOpenSessions
	// caps each shard, not the fleet. Shards (≤ 1 selects one)
	// partitions sessions by consistent hash on the session id; each
	// shard parses and reduces on its own worker behind a bounded queue
	// (429 + Retry-After load-shed), and the served model is
	// byte-identical for any count.
	shard.Config
	// RetryAfter is the back-off hint attached to the 429s of a shard's
	// open-session cap; ≤ 0 selects 1 s. Queue load-shed 429s use the
	// shard's enqueue timeout instead — that is how long the queue
	// actually stayed full.
	RetryAfter time.Duration
	// MaxLineBytes bounds one NDJSON line of an upload; ≤ 0 selects 1 MiB.
	MaxLineBytes int
	// CheckOptions parameterizes the model verifier gating GET /v1/model
	// and POST /v1/estimate.
	CheckOptions check.Options
	// Tracer, when set, attaches to every request context: ingestion and
	// snapshot spans stream to it as NDJSON (psmd -trace). When nil the
	// server still runs an internal tracer — the zero obs.Tracer, which
	// emits no events and keeps no span records — so the always-on
	// flight recorder and span window see every span.
	Tracer *obs.Tracer
	// Flight, when set, is the flight recorder the server's tracer and
	// handlers capture into; nil builds a private ring of
	// obs.DefaultFlightEntries slots. Either way GET /debug/flight
	// serves it.
	Flight *obs.Flight
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
		Config:       shard.Config{Stream: stream.DefaultConfig()},
		CheckOptions: check.DefaultOptions(),
	}
}

// Server routes the endpoints to its shard.Coordinator.
type Server struct {
	cfg    Config
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

	// The verified, encoded form of the last model generation served.
	genMu sync.Mutex
	gen   *generation
}

// generation is one model generation as the read endpoints serve it:
// the model shard.Coordinator.Snapshot returned (the cache key — a new
// generation is a new pointer), which passed verification, its JSON
// body in an exact-size buffer and the body's strong ETag.
type generation struct {
	m    *psm.Model
	body []byte
	etag string
}

// verifyError is a live model that failed verification: the response
// is a 500, and the model is never cached.
type verifyError struct{ rep *check.Report }

func (e *verifyError) Error() string {
	return fmt.Sprintf("live model failed verification (%d errors)", e.rep.Count(check.Error))
}

// New builds a server around a fresh shard coordinator. Runtime
// diagnostics are always on: every request runs under a tracer (the
// configured one, or an internal one that keeps no span records), every
// ended span lands in the flight recorder, and the /v1/ middleware
// keeps the windowed SLO instruments current.
func New(cfg Config) *Server {
	s := &Server{cfg: cfg, start: time.Now(), log: cfg.Log}
	s.co = shard.New(cfg.Config)
	s.flight = cfg.Flight
	if s.flight == nil {
		s.flight = obs.NewFlight(obs.DefaultFlightEntries)
	}
	s.tracer = cfg.Tracer
	if s.tracer == nil {
		s.tracer = new(obs.Tracer)
	}
	reg := s.co.Registry()
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

// Coordinator exposes the server's shard coordinator.
func (s *Server) Coordinator() *shard.Coordinator { return s.co }

// Metrics returns the fleet's aggregated counters (see
// shard.Coordinator.Metrics).
func (s *Server) Metrics() stream.Metrics { return s.co.Metrics() }

// Drain is the graceful-shutdown barrier, called after the HTTP server
// has stopped accepting requests: it flushes every shard queue into the
// engines — so the final metrics and any final snapshot cover
// everything acknowledged — and stops the shard workers.
func (s *Server) Drain(ctx context.Context) error {
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

// ingestResult is the response of a completed upload: the shard that
// owns the session and the session's completion index there.
type ingestResult struct {
	Trace   int `json:"trace"`
	Records int `json:"records"`
	Shard   int `json:"shard"`
}

// ingestError maps an ingest-path failure onto its HTTP status.
// Admission-control and load-shed rejections are 429s carrying a
// Retry-After hint: the shard's enqueue timeout when a queue shed the
// upload (that is how long it actually stayed full), the configured
// hint when a shard's open-session cap rejected it. Everything else is
// the client's malformed stream — 400.
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

// ingestBatch is how many record lines the upload handler frames into
// one batch before handing it to the session's shard. Larger batches
// amortize the queue hop and the atom-signature reduction, smaller ones
// bound the memory a slow upload pins.
const ingestBatch = 256

// handleTraces ingests one NDJSON trace stream as a session. The request
// context cancels with the connection, so a client disconnect surfaces as
// a body read error and the session aborts — nothing partial reaches the
// model.
//
// The handler only frames raw NDJSON lines into batches of ingestBatch
// records and hands them to the session's shard
// (shard.Session.AppendLines transfers buffer ownership); the shard's
// worker does the parse and the atom-signature reduction off the
// request path. The optional ?session= query parameter names the
// session for routing — uploads sharing an id land on the same shard;
// absent, the coordinator assigns one.
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
	sess, err := s.co.Open(r.Context(), r.URL.Query().Get("session"), sigs)
	if err != nil {
		s.log.Warn("session rejected", obs.KV("err", err.Error()))
		s.ingestError(w, err)
		return
	}

	// The session timeline attributes this upload's wall time to its
	// stages: scan (framing) and join (the Close round-trip, which rides
	// behind everything queued for the shard) on the handler, parse and
	// reduce on the shard worker, reported with the close ack. The top-K
	// slowest feed the /metrics and /v1/status slow-session tables.
	// Aborted sessions keep Trace = -1. Recording rides the response
	// commit (the same before-the-first-byte discipline as the SLO
	// middleware), so a client holding its ack already finds its session
	// in the tables; the defer covers sessions whose client vanished
	// before a response.
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
			buf = make([]byte, 0, ingestBatch*(len(line)+16))
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
		records++
		if records == ingestBatch {
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
	parse, reduce := sess.Timing()
	tl.ParseNS, tl.ReduceNS = parse.Nanoseconds(), reduce.Nanoseconds()
	if err != nil {
		s.log.Warn("session close failed", obs.KV("err", err.Error()))
		s.ingestError(w, err)
		return
	}
	tl.Trace = local
	span.SetAttr("trace", local)
	span.SetAttr("records", n)
	span.SetAttr("shard", sess.Shard())
	writeJSON(w, http.StatusOK, ingestResult{Trace: local, Records: n, Shard: sess.Shard()})
}

// handleModel exports the live model after the psmlint rule set clears
// it: a model that fails verification is a pipeline bug and must not
// leave the process looking like a result. The JSON body of a
// generation is encoded once and served from memory with its ETag;
// If-None-Match naming that tag (or *) gets a 304. DOT renders per
// request from the same verified model.
func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	g, ok := s.verifiedModel(w, r)
	if !ok {
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		h := w.Header()
		h.Set("ETag", g.etag)
		if etagMatch(r.Header.Get("If-None-Match"), g.etag) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		h.Set("Content-Type", "application/json")
		h.Set("Content-Length", strconv.Itoa(len(g.body)))
		//psmlint:ignore err-drop response already committed; a write error here means the client left
		w.Write(g.body)
	case "dot":
		w.Header().Set("Content-Type", "text/vnd.graphviz")
		//psmlint:ignore err-drop response already committed; a write error here means the client left
		g.m.WriteDOT(w, "psm")
	default:
		http.Error(w, fmt.Sprintf("unknown format %q (json|dot)", format), http.StatusBadRequest)
	}
}

// verifiedModel returns the current model generation, verified and
// encoded, or writes the error response and reports false: 404 before
// any trace completed, 500 for a failed snapshot or a model that fails
// verification (logged, with the report in the body), nothing when the
// client has gone.
func (s *Server) verifiedModel(w http.ResponseWriter, r *http.Request) (*generation, bool) {
	ctx := r.Context()
	m, err := s.co.Snapshot(ctx)
	if err == nil {
		var g *generation
		if g, err = s.generationOf(ctx, m); err == nil {
			return g, true
		}
	}
	var verr *verifyError
	switch {
	case errors.As(err, &verr):
		s.log.Error("live model failed verification", obs.KV("errors", verr.rep.Count(check.Error)))
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(w, "%v:\n", verr)
		//psmlint:ignore err-drop response already committed; a write error here means the client left
		verr.rep.Write(w)
	case errors.Is(err, stream.ErrNoTraces):
		http.Error(w, err.Error(), http.StatusNotFound)
	case ctx.Err() != nil && errors.Is(err, ctx.Err()):
		// The client is gone; nothing reaches it.
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
	return nil, false
}

// generationOf returns the served form of m: the cached entry when m is
// the generation already verified and encoded, else a fresh one —
// verified, encoded and hashed once, then cached unless it failed
// verification. No lock is held while verifying or encoding, so two
// concurrent misses on one generation may both do the work; each
// serves the body of the model its own snapshot returned.
func (s *Server) generationOf(ctx context.Context, m *psm.Model) (*generation, error) {
	s.genMu.Lock()
	g := s.gen
	s.genMu.Unlock()
	if g != nil && g.m == m {
		return g, nil
	}

	_, span := obs.Start(ctx, "check.verify")
	rep := check.VerifyPSM(m, "live", s.cfg.CheckOptions)
	span.End()
	if rep.HasErrors() {
		return nil, &verifyError{rep}
	}
	_, span = obs.Start(ctx, "psm.encode")
	var buf bytes.Buffer
	err := m.WriteJSON(&buf)
	span.End()
	if err != nil {
		return nil, err
	}
	body := make([]byte, buf.Len())
	copy(body, buf.Bytes())
	// The tag is the body's CRC-64/ECMA: a 64-bit function of the bytes
	// alone, so equal bodies carry equal tags across restarts and shard
	// counts. (The table is built on first use, not at package init.)
	tag := crc64.Checksum(body, crc64.MakeTable(crc64.ECMA))
	g = &generation{m: m, body: body, etag: fmt.Sprintf(`"%016x"`, tag)}

	s.genMu.Lock()
	s.gen = g
	s.genMu.Unlock()
	return g, nil
}

// etagMatch reports whether an If-None-Match header names etag: a
// comma-separated list of entity tags, or *. The comparison is weak
// (RFC 9110 13.1.2), so a W/ prefix on a listed tag still matches.
func etagMatch(header, etag string) bool {
	for _, tag := range strings.Split(header, ",") {
		tag = strings.TrimSpace(tag)
		if tag == "*" || strings.TrimPrefix(tag, "W/") == etag {
			return true
		}
	}
	return false
}

// handleProvenance streams the merge-provenance audit log of the live
// model as NDJSON, one mergeability decision per line — the same
// decisions, in the same canonical order, as `psmgen -provenance`
// over the traces ingested so far (the parity is pinned by test).
func (s *Server) handleProvenance(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	ds, err := s.co.Provenance(r.Context())
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
// current model snapshot, gated on the same per-generation verification
// as GET /v1/model (a model that fails it is a 500 here too, and
// nothing is estimated against it). Records may omit the power value;
// when all carry one, the MRE against the upload is reported. The upload's
// schema must be the model's: the co-simulation evaluates the model's
// atoms on each row by column, so any other schema is a 400 naming the
// first mismatch.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	g, ok := s.verifiedModel(w, r)
	if !ok {
		return
	}
	m := g.m

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
	sim := powersim.New(m, s.co.InputCols(), powersim.DefaultConfig())
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
