package main

import (
	"context"
	"fmt"
	"runtime"
	"time"
)

// setupReps is how many times a run sets up; setup_s is the median and
// the last set-up is the one measured.
const setupReps = 5

// lateBoundPeriods is the open-loop generator's own bound, in upload
// periods: a refresh run whose generator sent later than two periods at
// p99 is invalid, since it then offered less than its stated rate.
const lateBoundPeriods = 2.0

// runServer runs one psmd workload.
func runServer(ctx context.Context, w *workloadDef, o *options, rep *report) error {
	var (
		r      *serverRun
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		if r != nil {
			r.p.Close()
		}
		t0 := time.Now()
		var err error
		if r, err = serverSetup(ctx, w, o); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.set("setup_s", median(setups))

	r.run(ctx, o.seconds)
	if r.paperErr != nil {
		r.p.Close()
		return fmt.Errorf("reader co-simulation: %w", r.paperErr)
	}
	r.endToEnd(rep)
	served, err := r.p.finalModel(ctx)
	r.p.Close()
	r.p = nil // release the served engine before the check
	if err != nil {
		return err
	}
	if o.alter != nil {
		served = o.alter(served)
	}
	ups := canonical(r.ops)
	if err := checkUploads(r.cp, ups); err != nil {
		rep.fail("%v", err)
	}
	// pipeline.BuildModel over a run's thousands of sessions takes minutes,
	// so it checks the model served after the warm-up; the last model is
	// checked against a fresh stream.Engine fed the same sessions, which
	// the repository's parity suites pin byte-identical to it.
	if err := verifyServed(r.warmModel, r.warmRef, "pipeline.BuildModel over the warm-up sessions"); err != nil {
		rep.fail("%v", err)
	}
	t0 := time.Now()
	plain, err := replay(ctx, r.cp, ups, replayShape{}, nil)
	if err != nil {
		return fmt.Errorf("reference replay: %w", err)
	}
	rep.set("check.replay_s", time.Since(t0).Seconds())
	if err := verifyServed(served, plain.model, "a stream.Engine fed the acknowledged sessions in ack order"); err != nil {
		rep.fail("%v", err)
	}

	runtime.GC() // the validation timings should not pay for the replay's garbage
	pr, err := validate(r.cp.ip, plain.model, r.cp.inputCols, o.scaled(w.valCycles, 2*rateChunk), o.seed, nil)
	if err != nil {
		return err
	}
	rep.set("model_mre_pct", pr.mrePct)
	if w.reader {
		// The reader's turns spread over the window; a validation after
		// it would time one stretch of a host whose speed drifts.
		pr = r.paperRes
	}
	rep.set("cosim_rec_per_s", pr.cosimRate())
	rep.set("px_rec_per_s", pr.pxRate())

	if o.trace {
		return traceServer(ctx, r, ups, plain, served, o, rep)
	}
	return nil
}

// endToEnd derives the untraced metrics of a psmd run.
func (r *serverRun) endToEnd(rep *report) {
	missMs := float64(r.window.Nanoseconds()) / 1e6
	var (
		upLat, modelLat, late []float64
		upRecs, estRecs       int
		attempted, failed     int64
	)
	for _, o := range r.ops[warmups:] {
		attempted++
		lat := o.latencyMs()
		if !o.ok {
			failed++
			lat = missMs
		}
		switch o.kind {
		case "upload":
			upLat = append(upLat, lat)
			late = append(late, o.lateMs)
			if o.ok {
				upRecs += o.records
			}
		case "model":
			modelLat = append(modelLat, lat)
		case "estimate":
			if o.ok {
				estRecs += o.records
			}
		}
	}
	rep.attempted, rep.failed = attempted, failed
	secs := r.window.Seconds()
	rep.set("ingest_rec_per_s", float64(upRecs)/secs)
	rep.set("upload_p50_ms", quantile(upLat, 0.5))
	rep.set("upload_p99_ms", quantile(upLat, 0.99))
	rep.set("uploads", float64(len(upLat)))
	if len(modelLat) > 0 {
		rep.set("model_p50_ms", quantile(modelLat, 0.5))
		rep.set("model_p90_ms", quantile(modelLat, 0.9))
		rep.set("model_reads", float64(len(modelLat)))
	}
	rep.set("failed_frac", float64(failed)/float64(attempted))
	rep.set("live_heap_mb", r.heapMB)
	rep.set("runtime.gc_cpu_frac", r.gcFrac)

	rep.set("throughput_rec_per_s", float64(upRecs)/secs)
	if r.w.reader {
		rep.set("cosim_estimate_rec_per_s", float64(estRecs)/secs)
		// The median iteration: a rebuild or a collection that stalls a
		// few reads moves it little.
		rep.set("throughput_rec_per_s", median(r.readRates))
	}
	rep.set("latency_mean_ms", mean(upLat))
	rep.set("latency_p50_ms", quantile(upLat, 0.5))
	rep.set("latency_p90_ms", quantile(upLat, 0.9))

	lateP99 := quantile(late, 0.99)
	rep.set("loadgen.late_ms_p99", lateP99)
	if r.w.rate > 0 {
		if bound := lateBoundPeriods * 1000 / r.w.rate; lateP99 > bound {
			rep.fail("open-loop generator ran %.3f ms late at p99, beyond its %.1f ms bound: the run is invalid", lateP99, bound)
		}
	}
}
