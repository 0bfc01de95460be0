package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"psmkit/internal/check"
	"psmkit/internal/experiment"
	"psmkit/internal/pipeline"
	"psmkit/internal/psm"
	"psmkit/internal/testbench"
)

// batchScale shrinks the paper's short-TS lengths (Table II) so one
// build round over the four IPs takes a fraction of a second.
const batchScale = 0.5

// batchIP is one IP's training set and its latest model.
type batchIP struct {
	c      experiment.IPCase
	ts     *experiment.TraceSet
	model  *psm.Model
	mrePct float64 // of the latest model on the validation stimulus
}

func batchSetup(o *options) ([]*batchIP, error) {
	var ips []*batchIP
	for _, c := range experiment.Cases() {
		n := o.scaled(int(float64(c.ShortTS)*batchScale), 2000)
		ts, err := experiment.GenerateTraces(c, n, experiment.Pieces, testbench.Options{Seed: stimulusSeed(c, o.seed, 0)})
		if err != nil {
			return nil, err
		}
		ips = append(ips, &batchIP{c: c, ts: ts})
	}
	return ips, nil
}

// batchRound runs the paper flow once over the four IPs: build each
// model, then co-simulate and PX the IP's held-out validation stimulus.
// It returns the summed build time; the validation turns go to paper
// and how late each build started after the previous step to late.
func batchRound(ctx context.Context, ips []*batchIP, valCycles int, seed int64, paper *paperResult, late *[]float64) (time.Duration, error) {
	var built time.Duration
	free := time.Now()
	for _, ip := range ips {
		t0 := time.Now()
		*late = append(*late, float64(t0.Sub(free).Nanoseconds())/1e6)
		m, err := pipeline.BuildModel(ctx, ip.ts.FTs, ip.ts.PWs, ip.ts.InputCols, pipeline.DefaultConfig())
		if err != nil {
			return 0, fmt.Errorf("%s build: %w", ip.c.Name, err)
		}
		built += time.Since(t0)
		ip.model = m

		pr, err := validate(ip.c, m, ip.ts.InputCols, valCycles, seed, nil)
		if err != nil {
			return 0, err
		}
		paper.add(pr)
		ip.mrePct = pr.mrePct
		free = time.Now()
	}
	return built, nil
}

// runBatch runs rounds of the paper flow until the window closes. The
// first round is untimed: it fills the caches every later round finds
// warm. Every round builds the same traces, so rounds differ only in
// how a collection or the host slowed them.
func runBatch(ctx context.Context, w *workloadDef, o *options, rep *report) error {
	var (
		ips    []*batchIP
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if ips, err = batchSetup(o); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.set("setup_s", median(setups))

	valCycles := o.scaled(w.valCycles, 2*rateChunk)
	var late []float64
	if _, err := batchRound(ctx, ips, valCycles, o.seed, &paperResult{}, &late); err != nil {
		return err
	}
	var (
		rounds []float64 // ms to build one round of four models
		paper  paperResult
	)
	late = late[:0]
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	gc0, cpu0 := cpuStats()
	for len(rounds) == 0 || time.Now().Before(deadline) {
		d, err := batchRound(ctx, ips, valCycles, o.seed, &paper, &late)
		if err != nil {
			return err
		}
		rounds = append(rounds, float64(d.Nanoseconds())/1e6)
	}
	window := time.Since(start)
	rep.set("live_heap_mb", liveHeapMB())
	if gc1, cpu1 := cpuStats(); cpu1 > cpu0 {
		rep.set("runtime.gc_cpu_frac", (gc1-gc0)/(cpu1-cpu0))
	}
	rep.attempted = int64(3 * len(ips) * len(rounds))
	var roundRecs int
	var mre float64
	for _, ip := range ips {
		roundRecs += ip.ts.Instants()
		// Every IP validates over the same number of cycles.
		mre += ip.mrePct / float64(len(ips))
		rep.set("mre_pct."+ip.c.Name, ip.mrePct)
	}
	// Throughput is the rate sustained in nine rounds of ten, from the
	// p90 round: on a shared host whose speed drifts by tens of percent it
	// moved far less from run to run than the median round.
	p90 := quantile(rounds, 0.9)
	rep.set("window_s", window.Seconds())
	rep.set("build_s", median(rounds)/1000)
	rep.set("throughput_rec_per_s", float64(roundRecs)/(p90/1000))
	rep.set("latency_mean_ms", mean(rounds))
	rep.set("latency_p50_ms", median(rounds))
	rep.set("latency_p90_ms", p90)
	rep.set("rounds", float64(len(rounds)))
	rep.set("cosim_rec_per_s", paper.cosimRate())
	rep.set("px_rec_per_s", paper.pxRate())
	rep.set("model_mre_pct", mre)
	rep.set("failed_frac", 0)
	rep.set("loadgen.late_ms_p99", quantile(late, 0.99))

	for i, ip := range ips {
		if err := checkBatch(ip, o, i == 0); err != nil {
			rep.fail("%s: %v", ip.c.Name, err)
		}
	}
	if o.trace {
		return traceBatch(ctx, ips, o, rep)
	}
	return nil
}

// checkBatch verifies an IP's model: it must pass check.VerifyPSM and its
// JSON must equal the sequential flow's (experiment.BuildModel). alter
// applies the self-test's fault hook to the first IP's bytes.
func checkBatch(ip *batchIP, o *options, alter bool) error {
	var got, want bytes.Buffer
	if err := ip.model.WriteJSON(&got); err != nil {
		return err
	}
	served := got.Bytes()
	if alter && o.alter != nil {
		served = o.alter(served)
	}
	flow, err := experiment.BuildModel(ip.ts, experiment.DefaultPolicies())
	if err != nil {
		return err
	}
	if err := flow.Model.WriteJSON(&want); err != nil {
		return err
	}
	if !bytes.Equal(served, want.Bytes()) {
		return fmt.Errorf("pipeline.BuildModel differs from the sequential flow (%d vs %d bytes)", len(served), want.Len())
	}
	if rep := check.VerifyPSM(ip.model, ip.c.Name, check.DefaultOptions()); rep.HasErrors() {
		return fmt.Errorf("model fails check.VerifyPSM (%d errors)", rep.Count(check.Error))
	}
	return nil
}
