package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"psmkit/internal/experiment"
	"psmkit/internal/hdl"
	"psmkit/internal/logic"
	"psmkit/internal/pipeline"
	"psmkit/internal/power"
	"psmkit/internal/powersim"
	"psmkit/internal/psm"
	"psmkit/internal/stats"
	"psmkit/internal/stream"
	"psmkit/internal/testbench"
	"psmkit/internal/trace"
)

// session is one generated trace: the functional and power traces the
// batch flow reads, and the same instants as the NDJSON upload body
// psmd ingests.
type session struct {
	ft   *trace.Functional
	pw   *trace.Power
	body []byte
}

// corpus is one IP's generated trace pool.
type corpus struct {
	ip        experiment.IPCase
	inputCols []int
	inputs    []string
	sessions  []*session
}

// capture drives the IP under its stimulus program for n cycles and
// returns the functional and reference power traces (the path
// `tracegen -stream` takes).
func capture(c experiment.IPCase, n int, seed int64, stalls bool) (*trace.Functional, *trace.Power, []int, error) {
	core := c.New()
	sim := hdl.NewSimulator(core)
	est := power.NewEstimator(core, power.DefaultConfig())
	ft, obs := trace.Capture(core)
	sim.Observe(obs)
	sim.Observe(est.Observer())
	gen, err := testbench.For(core, testbench.Options{Seed: seed, Stalls: stalls})
	if err != nil {
		return nil, nil, nil, err
	}
	if err := testbench.Drive(sim, gen, n); err != nil {
		return nil, nil, nil, err
	}
	return ft, &trace.Power{Values: est.Trace()}, trace.InputColumns(ft, core), nil
}

// ndjson renders a captured trace as one upload body.
func ndjson(ft *trace.Functional, pw *trace.Power, inputCols []int) ([]byte, error) {
	var buf bytes.Buffer
	enc := stream.NewEncoder(&buf)
	if err := enc.WriteHeader(stream.HeaderFor(ft.Signals, inputCols)); err != nil {
		return nil, err
	}
	for t := 0; t < ft.Len(); t++ {
		if err := enc.WriteRow(ft.Row(t), pw.Values[t]); err != nil {
			return nil, err
		}
	}
	if err := enc.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// stimulusSeed derives the stimulus seed of trace i of a corpus from the
// workload seed, so one --seed fixes every input of a run.
func stimulusSeed(c experiment.IPCase, seed int64, i int) int64 {
	return c.Seed + seed*1_000_003 + int64(i)*7919
}

// validationSeed is the held-out stimulus the model is scored on: never
// among the training seeds of the same run.
func validationSeed(c experiment.IPCase, seed int64) int64 {
	return c.Seed + seed*1_000_003 + 424243
}

// buildCorpus generates count traces of n instants each from the named
// IP.
func buildCorpus(ip string, count, n int, seed int64) (*corpus, error) {
	c, err := experiment.CaseByName(ip)
	if err != nil {
		return nil, err
	}
	cp := &corpus{ip: c}
	for i := 0; i < count; i++ {
		s, cols, err := usableSession(c, n, seed, i, count)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			cp.inputCols = cols
			for _, col := range cols {
				cp.inputs = append(cp.inputs, s.ft.Signals[col].Name)
			}
		}
		cp.sessions = append(cp.sessions, s)
	}
	return cp, nil
}

// usableSession generates trace i of a pool. A trace the batch flow
// cannot build a model from (too short to expose a temporal pattern) is
// drawn again from a later stimulus seed, so every input is valid and
// still fixed by the workload seed.
func usableSession(c experiment.IPCase, n int, seed int64, i, count int) (*session, []int, error) {
	var last error
	for attempt := 0; attempt < 10; attempt++ {
		ft, pw, cols, err := capture(c, n, stimulusSeed(c, seed, i+attempt*count), false)
		if err != nil {
			return nil, nil, fmt.Errorf("generate %s trace %d: %w", c.Name, i, err)
		}
		_, last = pipeline.BuildModel(context.Background(), []*trace.Functional{ft}, []*trace.Power{pw}, cols, pipeline.DefaultConfig())
		if last != nil {
			continue
		}
		body, err := ndjson(ft, pw, cols)
		if err != nil {
			return nil, nil, err
		}
		return &session{ft: ft, pw: pw, body: body}, cols, nil
	}
	return nil, nil, fmt.Errorf("no usable %s trace %d for seed %d: %w", c.Name, i, seed, last)
}

// cycleHook, when set, times the per-cycle work of a rig: the simulator's
// Step and its observers apart.
type cycleHook struct {
	step     func(d time.Duration)
	observer func(d time.Duration)
}

// rateChunk is how many cycles the validation runs the co-simulation and
// PX for in turn: interleaved, both see the same machine.
const rateChunk = 256

// rig is an IP simulator under its validation stimulus.
type rig struct {
	sim  *hdl.Simulator
	gen  testbench.Generator
	hook *cycleHook
}

func newRig(c experiment.IPCase, opts testbench.Options, hook *cycleHook, attach func(core hdl.Core, sim *hdl.Simulator)) (*rig, error) {
	core := c.New()
	sim := hdl.NewSimulator(core)
	attach(core, sim)
	gen, err := testbench.For(core, opts)
	if err != nil {
		return nil, err
	}
	return &rig{sim: sim, gen: gen, hook: hook}, nil
}

// run steps n cycles and returns their wall time, stimulus generation
// included as in Table III.
func (r *rig) run(n int) (time.Duration, error) {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		in := r.gen.Next()
		var s0 time.Time
		if r.hook != nil {
			s0 = time.Now()
		}
		if _, err := r.sim.Step(in); err != nil {
			return 0, err
		}
		if r.hook != nil {
			r.hook.step(time.Since(s0))
		}
	}
	return time.Since(t0), nil
}

// timedObserver wraps an observer with the hook's timer.
func timedObserver(o hdl.Observer, hook *cycleHook) hdl.Observer {
	if hook == nil {
		return o
	}
	return func(cycle int, in, out hdl.Values) {
		t0 := time.Now()
		o(cycle, in, out)
		hook.observer(time.Since(t0))
	}
}

// pxRig is the paper's PX column: the IP with the reference power
// estimator observing it.
func pxRig(c experiment.IPCase, opts testbench.Options, hook *cycleHook) (*rig, *power.Estimator, error) {
	var est *power.Estimator
	r, err := newRig(c, opts, hook, func(core hdl.Core, sim *hdl.Simulator) {
		est = power.NewEstimator(core, power.DefaultConfig())
		sim.Observe(timedObserver(est.Observer(), hook))
	})
	return r, est, err
}

// cosimRig is Table III's IP+PSMs column: the IP with the PSM tracker in
// lock-step, appending every instant's estimate to *estimates.
func cosimRig(c experiment.IPCase, m *psm.Model, inputCols []int, opts testbench.Options, hook *cycleHook, estimates *[]float64) (*rig, error) {
	return newRig(c, opts, hook, func(core hdl.Core, sim *hdl.Simulator) {
		tracker := powersim.New(m, inputCols, powersim.DefaultConfig())
		names := hdl.SortedPortNames(core)
		row := make([]logic.Vector, len(names))
		sim.Observe(timedObserver(func(_ int, in, out hdl.Values) {
			for i, name := range names {
				if v, ok := in[name]; ok {
					row[i] = v
				} else {
					row[i] = out[name]
				}
			}
			*estimates = append(*estimates, tracker.Step(row))
		}, hook))
	})
}

// paperHooks time the PX and co-simulation runs of validate apart.
type paperHooks struct {
	px, cosim *cycleHook
}

// paperResult is the validation figures of one model. The rates are
// kept per rateChunk turn: a turn that overlapped a collection or a
// preemption falls in the slow tail, one the host ran faster in
// preemption falls in the fast tail. The reported rate is the one
// sustained in nine turns of ten (the 10th percentile): on a shared host
// whose speed drifts by tens of percent, it moved far less from run to
// run than the median.
type paperResult struct {
	cycles              int
	cosimRates, pxRates []float64 // cycles/s, one per turn
	mrePct              float64
}

func (p paperResult) cosimRate() float64 { return quantile(p.cosimRates, 0.1) }
func (p paperResult) pxRate() float64    { return quantile(p.pxRates, 0.1) }

// add appends another model's turns.
func (p *paperResult) add(q paperResult) {
	p.cycles += q.cycles
	p.cosimRates = append(p.cosimRates, q.cosimRates...)
	p.pxRates = append(p.pxRates, q.pxRates...)
}

// paperRun is the co-simulation and PX of one model over its held-out
// validation stimulus (stalls injected, as in Table III), stepped
// rateChunk cycles of each in turn.
type paperRun struct {
	co, px *rig
	ref    *power.Estimator
	est    []float64
	res    paperResult
}

func newPaperRun(c experiment.IPCase, m *psm.Model, inputCols []int, seed int64, hooks *paperHooks) (*paperRun, error) {
	var pxHook, coHook *cycleHook
	if hooks != nil {
		pxHook, coHook = hooks.px, hooks.cosim
	}
	opts := testbench.Options{Seed: validationSeed(c, seed), Stalls: true}
	p := &paperRun{}
	var err error
	if p.co, err = cosimRig(c, m, inputCols, opts, coHook, &p.est); err != nil {
		return nil, err
	}
	if p.px, p.ref, err = pxRig(c, opts, pxHook); err != nil {
		return nil, err
	}
	return p, nil
}

// turn runs k cycles of the co-simulation, then k of PX.
func (p *paperRun) turn(k int) error {
	d, err := p.co.run(k)
	if err != nil {
		return err
	}
	p.res.cosimRates = append(p.res.cosimRates, float64(k)/d.Seconds())
	if d, err = p.px.run(k); err != nil {
		return err
	}
	p.res.pxRates = append(p.res.pxRates, float64(k)/d.Seconds())
	p.res.cycles += k
	return nil
}

// result scores the model against PX over the cycles run so far.
func (p *paperRun) result() paperResult {
	p.res.mrePct = 100 * stats.MeanRelativeError(p.est, p.ref.Trace())
	return p.res
}

// validate runs the co-simulation and PX over n cycles and scores the
// model against PX.
func validate(c experiment.IPCase, m *psm.Model, inputCols []int, n int, seed int64, hooks *paperHooks) (paperResult, error) {
	p, err := newPaperRun(c, m, inputCols, seed, hooks)
	if err != nil {
		return paperResult{}, err
	}
	p.est = make([]float64, 0, n)
	for p.res.cycles < n {
		if err := p.turn(min(rateChunk, n-p.res.cycles)); err != nil {
			return paperResult{}, err
		}
	}
	return p.result(), nil
}
