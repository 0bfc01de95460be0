// Command psmd is the PSM serving daemon: the long-running, online face
// of the generation flow. Where cmd/psmgen runs the batch pipeline over a
// fixed trace set and exits, psmd keeps the model alive — clients stream
// functional/power traces in over HTTP (many concurrent sessions, one per
// trace being captured), the daemon folds each completed trace into the
// live model incrementally, and serves the current model, power estimates
// and operational metrics at any time. The streamed model is byte-
// identical to what psmgen would produce over the same completed traces.
//
// Usage:
//
//	psmd -addr :8080 -inputs en,we,addr
//
// then, with cmd/tracegen as the trace source:
//
//	tracegen -ip RAM -n 20000 -stream | curl -s -X POST --data-binary @- localhost:8080/v1/traces
//	curl -s localhost:8080/v1/model?format=dot
//	curl -s localhost:8080/v1/status
//	curl -s localhost:8080/debug/flight
//
// Endpoints: POST /v1/traces, GET /v1/model, GET /v1/provenance,
// POST /v1/estimate, GET /v1/status, GET /metrics, GET /debug/flight,
// GET /debug/pprof. SIGINT/SIGTERM shut the daemon down gracefully,
// draining in-flight uploads before exiting. SIGQUIT dumps the flight
// recorder — the ring of most recent span and log events — to stderr
// without stopping the daemon; a crash path dumps it too, so the last
// moments before a failure are always recoverable.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"psmkit/internal/mining"
	"psmkit/internal/obs"
	"psmkit/internal/psm"
	"psmkit/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	inputs := flag.String("inputs", "", "comma-separated primary-input signal names (calibration regressor)")
	minSupport := flag.Float64("min-support", mining.DefaultConfig().MinSupport, "miner: minimum atomic-proposition support")
	minRun := flag.Float64("min-run", mining.DefaultConfig().MinRunLength, "miner: minimum average run length for wide atoms")
	alpha := flag.Float64("alpha", psm.DefaultMergePolicy().Alpha, "merge: t-test significance level")
	epsilon := flag.Float64("epsilon", psm.DefaultMergePolicy().Epsilon, "merge: next-state mean tolerance")
	maxCV := flag.Float64("max-cv", psm.DefaultCalibrationPolicy().MaxCV, "calibrate: CV threshold for data-dependent states")
	minR := flag.Float64("min-r", psm.DefaultCalibrationPolicy().MinR, "calibrate: minimum |Pearson r|")
	maxRecords := flag.Int("max-records", serve.DefaultConfig().Stream.MaxRecords, "per-session record limit (0 = unlimited)")
	maxSessions := flag.Int("max-sessions", serve.DefaultConfig().Stream.MaxOpenSessions, "concurrently open upload sessions per shard (0 = unlimited)")
	shards := flag.Int("shards", 1, "ingest shards: sessions partition across that many engines by consistent hash, each parsing and reducing on its own worker (model stays byte-identical)")
	retryAfter := flag.Duration("retry-after", 0, "Retry-After hint on open-session-cap 429s (0 = 1s)")
	maxLine := flag.Int("max-line-bytes", 1<<20, "NDJSON line length limit for uploads")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "worker goroutines for snapshot rebuilds (model is identical for any value)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain timeout")
	tracePath := flag.String("trace", "", "write NDJSON span events (ingest, snapshot, join) to this file; prints the span summary at shutdown")
	logLevel := flag.String("log-level", "info", "minimum log level (debug|info|warn|error)")
	flightEntries := flag.Int("flight-entries", obs.DefaultFlightEntries, "flight recorder ring size (most recent span/log events kept)")
	sloIngestP99 := flag.Float64("slo-ingest-p99", 0, "ingest-latency p99 objective in ms for /v1/status burn (0 = disabled)")
	sloErrorRate := flag.Float64("slo-error-rate", 0, "5xx error-rate objective (fraction of /v1/ requests) for /v1/status burn (0 = disabled)")
	flag.Parse()

	// ParseLevel falls back to info on error, so the logger is usable
	// even to report its own misconfiguration.
	lvl, lvlErr := obs.ParseLevel(*logLevel)
	flight := obs.NewFlight(*flightEntries)
	logger := obs.NewLogger(os.Stderr, lvl)
	logger.SetFlight(flight)
	if lvlErr != nil {
		logger.Error("psmd failed", obs.KV("err", lvlErr.Error()))
		os.Exit(2)
	}

	cfg := serve.DefaultConfig()
	cfg.Stream.Workers = *jobs
	cfg.Stream.Mining = mining.Config{MinSupport: *minSupport, MinRunLength: *minRun}
	cfg.Stream.Merge = psm.MergePolicy{Epsilon: *epsilon, Alpha: *alpha, EquivalenceMargin: psm.DefaultMergePolicy().EquivalenceMargin}
	cfg.Stream.Calibration = psm.CalibrationPolicy{MaxCV: *maxCV, MinR: *minR}
	cfg.Stream.MaxRecords = *maxRecords
	cfg.Stream.MaxOpenSessions = *maxSessions
	cfg.Shards = *shards
	cfg.RetryAfter = *retryAfter
	cfg.MaxLineBytes = *maxLine
	cfg.Flight = flight
	cfg.Log = logger
	cfg.SLO = serve.SLOConfig{IngestP99Ms: *sloIngestP99, ErrorRate: *sloErrorRate}
	if *inputs != "" {
		cfg.Stream.Inputs = strings.Split(*inputs, ",")
	}

	var traceFile *os.File
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			logger.Error("psmd failed", obs.KV("err", err.Error()))
			os.Exit(1)
		}
		traceFile = f
		cfg.Tracer = obs.NewTracer(f)
	}

	// SIGQUIT dumps the flight recorder without stopping the daemon —
	// the live equivalent of a goroutine dump for the mining path.
	qc := make(chan os.Signal, 1)
	signal.Notify(qc, syscall.SIGQUIT)
	go func() {
		for range qc {
			logger.Info("flight dump (SIGQUIT)", obs.KV("entries", flight.Recorded()))
			//psmlint:ignore err-drop diagnostics dump; a stderr write error has nowhere to go
			flight.WriteNDJSON(os.Stderr)
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	err := run(ctx, *addr, cfg, *drain, logger)
	if traceFile != nil {
		if serr := cfg.Tracer.WriteSummary(os.Stderr); serr != nil && err == nil {
			err = serr
		}
		if cerr := traceFile.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		// Crash path: the error plus the flight recorder's recent
		// history — the last spans and events before the failure.
		logger.Error("psmd failed", obs.KV("err", err.Error()))
		//psmlint:ignore err-drop diagnostics dump on the way down; nothing to do about a write error
		flight.WriteNDJSON(os.Stderr)
		os.Exit(1)
	}
}

// run binds the address and serves until ctx is cancelled.
func run(ctx context.Context, addr string, cfg serve.Config, drain time.Duration, log *obs.Logger) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return serveOn(ctx, ln, serve.New(cfg), drain, log)
}

// serveOn serves on an existing listener until ctx is cancelled, then
// drains in-flight uploads for up to drain before returning. Split from
// run so the smoke test can drive the daemon on an ephemeral port.
func serveOn(ctx context.Context, ln net.Listener, srv *serve.Server, drain time.Duration, log *obs.Logger) error {
	hs := &http.Server{Handler: srv.Handler()}
	log.Info("serving", obs.KV("addr", ln.Addr().String()))

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Info("shutting down", obs.KV("drain", drain.String()))
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	// Flush the shard queues into the engines and stop the workers so
	// the final counters cover everything acknowledged.
	if err := srv.Drain(sctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	m := srv.Metrics()
	log.Info("done", obs.KV("records", m.RecordsIngested), obs.KV("traces", m.TracesCompleted))
	return nil
}
