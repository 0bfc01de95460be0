package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"time"

	"psmkit/internal/mining"
	"psmkit/internal/pipeline"
	"psmkit/internal/psm"
	"psmkit/internal/trace"
)

// profile accumulates a traced run's measurements across replays.
type profile struct {
	// rec holds the flow and simulator spans; plainRec, engRec and coRec
	// share its clock and ids and hold the spans of the replays whose
	// spans give the metrics of one layer.
	rec, plainRec, engRec, coRec *recorder
	plain                        time.Duration // untraced replay busy time
	traced                       time.Duration // traced replay busy time, same calls
	records                      int           // records of the traced plain replay
	alloc                        float64
	held                         float64
	eng, co                      []*replayOut // workload-shaped replays
	shardRec                     []int64
	depthMax                     float64
	shed                         float64
	flow                         map[string]time.Duration
	gaps                         []float64
	// buildGaps is, per traced build, pipeline.BuildModel's untraced
	// wall time minus the sum of the traced stages.
	buildGaps []float64
}

func newProfile() *profile {
	rec := newRecorder()
	return &profile{rec: rec, plainRec: rec.sibling(), engRec: rec.sibling(), coRec: rec.sibling(),
		flow: map[string]time.Duration{}}
}

// sameModel fails the run when a replay's model differs from the
// reference bytes.
func sameModel(m *psm.Model, want []byte, what string, rep *report) {
	var got bytes.Buffer
	if err := m.WriteJSON(&got); err != nil || !bytes.Equal(got.Bytes(), want) {
		rep.fail("%s replay model differs from the served model", what)
	}
}

// coPrefix is how many sessions a workload not served by a coordinator
// replays through one.
const coPrefix = 64

// profileStream replays the sessions three more times after the
// untraced check replay plain: traced with the same shape (their
// busy-time ratio is the tracing overhead; the traced one gives the
// per-record ingest costs), then traced through an engine and through a
// coordinator with the workload's own shape.
func (p *profile) profileStream(ctx context.Context, cp *corpus, ups []op, plain *replayOut, shape replayShape, shards int, sharded bool, want []byte, rep *report) error {
	t0 := time.Now()
	traced, err := replay(ctx, cp, ups, replayShape{}, p.plainRec)
	if err != nil {
		return err
	}
	sameModel(traced.model, want, "traced", rep)
	p.plain += plain.busy
	p.traced += traced.busy
	p.records += traced.records
	p.alloc += traced.allocBytes
	p.held += traced.heldBytes

	rep.set("trace.plain_replay_s", time.Since(t0).Seconds())
	t0 = time.Now()
	engShape := shape
	engShape.shards = 0
	eng, err := replay(ctx, cp, ups, engShape, p.engRec)
	if err != nil {
		return err
	}
	sameModel(eng.model, want, "engine", rep)
	rep.set("trace.engine_replay_s", time.Since(t0).Seconds())
	t0 = time.Now()
	coShape := shape
	coShape.shards = shards
	coUps := interleave(ups)
	if !sharded {
		// A coordinator snapshot re-joins every chain, so off the sharded
		// workload only a prefix goes through one, spread over its shards.
		n := len(ups)
		if n > coPrefix {
			n = coPrefix
		}
		coUps = make([]op, n)
		for i := range coUps {
			coUps[i] = ups[i]
			k := i % shards
			coUps[i].ack.Shard = &k
		}
		coShape.due = nil
		coShape.reader = false
		wantCo, err := replay(ctx, cp, canonical(coUps), replayShape{}, nil)
		if err != nil {
			return err
		}
		var b bytes.Buffer
		if err := wantCo.model.WriteJSON(&b); err != nil {
			return err
		}
		want = b.Bytes()
	}
	co, err := replay(ctx, cp, coUps, coShape, p.coRec)
	if err != nil {
		return err
	}
	sameModel(co.model, want, "coordinator", rep)
	rep.set("trace.coordinator_replay_s", time.Since(t0).Seconds())
	p.eng = append(p.eng, eng)
	p.co = append(p.co, co)
	for _, n := range co.shardRec {
		p.shardRec = append(p.shardRec, n)
	}
	if co.depthMax > p.depthMax {
		p.depthMax = co.depthMax
	}
	p.shed += co.counters["shed"]
	return nil
}

// profileFlow times the batch flow's stages one public call at a time
// over a trace set and checks the result against pipeline.BuildModel.
func (p *profile) profileFlow(ctx context.Context, fts []*trace.Functional, pws []*trace.Power, inputCols []int, rep *report) error {
	cfg := pipeline.DefaultConfig()
	root := p.rec.reserve()
	start := time.Now()
	t0 := time.Now()
	dict, pts, err := mining.MineParallel(ctx, fts, cfg.Mining, clients)
	if err != nil {
		return err
	}
	p.flow["mine"] += p.timed("mining.mine", root, t0)
	chains := make([]*psm.Chain, len(pts))
	for i := range pts {
		t0 = time.Now()
		c, err := psm.GenerateCtx(ctx, dict, pts[i], pws[i], i)
		if err != nil {
			return err
		}
		p.flow["generate"] += p.timed("psm.generate", root, t0)
		t0 = time.Now()
		chains[i] = psm.SimplifyCtx(ctx, c, cfg.Merge)
		p.flow["simplify"] += p.timed("psm.simplify", root, t0)
	}
	t0 = time.Now()
	model, err := pipeline.TreeJoin(ctx, chains, cfg.Merge, clients)
	if err != nil {
		return err
	}
	p.flow["join"] += p.timed("pipeline.join", root, t0)
	t0 = time.Now()
	psm.CalibrateCtx(ctx, model, fts, pws, inputCols, cfg.Calibration)
	p.flow["calibrate"] += p.timed("psm.calibrate", root, t0)
	p.rec.addWithID(root, "pipeline.build", 0, 0, start, time.Since(start), 1)

	staged := time.Since(start)
	t0 = time.Now()
	ref, err := pipeline.BuildModel(ctx, fts, pws, inputCols, cfg)
	if err != nil {
		return err
	}
	p.buildGaps = append(p.buildGaps, float64((time.Since(t0)-staged).Nanoseconds())/1e6)
	var a, b bytes.Buffer
	if model.WriteJSON(&a) != nil || ref.WriteJSON(&b) != nil || !bytes.Equal(a.Bytes(), b.Bytes()) {
		rep.fail("stage-by-stage build differs from pipeline.BuildModel")
	}
	return nil
}

func (p *profile) timed(name string, parent int64, t0 time.Time) time.Duration {
	d := time.Since(t0)
	p.rec.add(name, parent, 0, t0, d, 1)
	return d
}

// profilePaper times the simulator and its observers per cycle over the
// validation stimulus: PX (the power estimator observes) and the
// co-simulation (the PSM tracker observes).
func (p *profile) profilePaper(cp *corpus, m *psm.Model, n int, seed int64) error {
	var pxStep, pxObs, coStep, coObs time.Duration
	hooks := &paperHooks{
		px:    &cycleHook{step: func(d time.Duration) { pxStep += d }, observer: func(d time.Duration) { pxObs += d }},
		cosim: &cycleHook{step: func(d time.Duration) { coStep += d }, observer: func(d time.Duration) { coObs += d }},
	}
	t0 := time.Now()
	if _, err := validate(cp.ip, m, cp.inputCols, n, seed, hooks); err != nil {
		return err
	}
	px := p.rec.add("hdl.step.px", 0, 0, t0, pxStep, n)
	p.rec.add("power.estimate", px, 0, t0, pxObs, n)
	co := p.rec.add("hdl.step.cosim", 0, 0, t0, coStep, n)
	p.rec.add("powersim.step", co, 0, t0, coObs, n)
	return nil
}

// emit derives the per-layer metrics from the spans and counters.
func (p *profile) emit(rep *report, shardedBackend bool) {
	ls := p.rec.layers()
	plain, eng, co := p.plainRec.layers(), p.engRec.layers(), p.coRec.layers()
	per := func(ls map[string]*layer, name string) float64 {
		if l := ls[name]; l != nil && l.calls > 0 {
			return float64(l.self.Nanoseconds()) / float64(l.calls)
		}
		return 0
	}
	q := func(ls map[string]*layer, name string, qq float64) float64 {
		if l := ls[name]; l != nil {
			return quantile(l.durs, qq)
		}
		return 0
	}
	recs := func(name string) int {
		if l := ls[name]; l != nil {
			return l.calls
		}
		return 0
	}
	rep.set("stream.scan_ns_per_rec", per(plain, "stream.scan"))
	rep.set("stream.parse_ns_per_rec", per(plain, "stream.parse"))
	rep.set("stream.reduce_ns_per_rec", per(plain, "stream.reduce"))
	if p.records > 0 {
		rep.set("stream.alloc_bytes_per_rec", p.alloc/float64(p.records))
		rep.set("stream.held_bytes_per_rec", p.held/float64(p.records))
	}
	rep.set("stream.close_ms_p50", q(eng, "stream.close", 0.5))
	rep.set("stream.close_ms_p99", q(eng, "stream.close", 0.99))
	rep.set("stream.snapshot_ms_p50", q(eng, "stream.snapshot", 0.5))
	rep.set("stream.snapshot_ms_p90", q(eng, "stream.snapshot", 0.9))
	rep.set("stream.snapshot.collapse_ms", q(eng, "stream.snapshot.collapse", 0.5))
	rep.set("stream.snapshot.calibrate_ms", q(eng, "stream.snapshot.calibrate", 0.5))

	outs := p.eng
	if shardedBackend {
		outs = p.co
	}
	var snaps, delta, rebuilds, pooled, served, evals, checks, bytesM float64
	for _, o := range outs {
		snaps += o.counters["psmd_snapshots_total"]
		delta += o.counters["psmd_snapshots_delta_total"]
		rebuilds += o.counters["psmd_rebuilds_total"]
		pooled += o.counters["psmd_states_pooled"]
		served += o.counters["psmd_states_served"]
		evals += o.counters["psm_merge_evals_total"]
		checks += o.counters["psm_merge_checks_total"]
		bytesM += o.counters["model_bytes"]
	}
	if snaps > 0 {
		rep.set("stream.delta_frac", delta/snaps)
	}
	rep.set("stream.rebuilds", rebuilds)
	rep.set("psm.states_pooled", pooled)
	rep.set("psm.states_served", served)
	if checks > 0 {
		rep.set("psm.merge_evals_per_check", evals/checks)
	}
	reads := eng
	if shardedBackend {
		reads = co
	}
	rep.set("check.verify_ms_p50", q(reads, "check.verify", 0.5))
	rep.set("psm.encode_ms_p50", q(reads, "psm.encode", 0.5))
	rep.set("psm.model_bytes", bytesM)

	rep.set("shard.enqueue_ns_per_rec", per(co, "shard.enqueue"))
	rep.set("shard.close_ms_p99", q(co, "shard.close", 0.99))
	rep.set("shard.queue_depth_max", p.depthMax)
	rep.set("shard.shed", p.shed)
	if lo, hi := minMax(p.shardRec); lo > 0 {
		rep.set("shard.skew", float64(hi)/float64(lo))
	}
	rep.set("shard.snapshot_ms_p50", q(co, "shard.snapshot", 0.5))

	if n := recs("hdl.step.px") + recs("hdl.step.cosim"); n > 0 {
		hdlSelf := ls["hdl.step.px"].self + ls["hdl.step.cosim"].self
		rep.set("hdl.sim_ns_per_cycle", float64(hdlSelf.Nanoseconds())/float64(n))
	}
	if l := ls["power.estimate"]; l != nil && l.calls > 0 {
		rep.set("power.estimate_ns_per_cycle", float64(l.total.Nanoseconds())/float64(l.calls))
	}
	if l := ls["powersim.step"]; l != nil && l.calls > 0 {
		rep.set("powersim.step_ns", float64(l.total.Nanoseconds())/float64(l.calls))
	}
	rep.set("mining.mine_s", p.flow["mine"].Seconds())
	rep.set("psm.generate_s", p.flow["generate"].Seconds())
	rep.set("psm.simplify_s", p.flow["simplify"].Seconds())
	rep.set("pipeline.join_s", p.flow["join"].Seconds())
	rep.set("psm.calibrate_s", p.flow["calibrate"].Seconds())

	if p.gaps != nil {
		rep.set("serve.gap_ms_p50", quantile(p.gaps, 0.5))
	}
	if p.plain > 0 {
		rep.set("bench.trace_overhead_frac", float64(p.traced)/float64(p.plain)-1)
	}
}

func minMax(xs []int64) (lo, hi int64) {
	for i, x := range xs {
		if i == 0 || x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// writeSpans saves the run's spans next to the build, in the checkout.
func (p *profile) writeSpans(o *options, rep *report) {
	for _, s := range []*recorder{p.plainRec, p.engRec, p.coRec} {
		p.rec.spans = append(p.rec.spans, s.spans...)
	}
	path := filepath.Join(".bench_build", "psmbench", fmt.Sprintf("spans-%s-%d.ndjson", o.workload, o.seed))
	if err := p.rec.write(path); err != nil {
		fmt.Fprintln(rep.out, "spans not written:", err)
		return
	}
	fmt.Fprintf(rep.out, "spans: %d written to %s\n", len(p.rec.spans), path)
}

// traceServer is the traced half of a psmd workload run.
func traceServer(ctx context.Context, r *serverRun, ups []op, plain *replayOut, served []byte, o *options, rep *report) error {
	p := newProfile()
	shape := replayShape{workers: r.w.uploaders, readEvery: r.w.readEvery, reader: r.w.reader, est: r.est}
	if r.w.rate > 0 {
		start := ups[0].start
		for _, u := range ups {
			if !u.due.IsZero() && u.due.Before(start) {
				start = u.due
			}
		}
		shape.due = make([]time.Duration, len(ups))
		for i, u := range ups {
			if !u.due.IsZero() {
				shape.due[i] = u.due.Sub(start)
			}
		}
	}
	shards := r.w.shards
	if shards < 2 {
		shards = 2
	}
	if err := p.profileStream(ctx, r.cp, ups, plain, shape, shards, r.w.shards > 1, served, rep); err != nil {
		return err
	}
	// serve.gap: the untraced HTTP latency of each session minus the
	// traced replay's summed layer calls for it.
	calls := p.eng[0]
	if r.w.shards > 1 {
		calls = p.co[0]
	}
	for i, u := range calls.fed {
		if !u.start.IsZero() {
			p.gaps = append(p.gaps, float64(u.end.Sub(u.start).Nanoseconds())/1e6-float64(calls.sessions[i].Nanoseconds())/1e6)
		}
	}
	fts, pws := poolTraces(r.cp)
	if err := p.profileFlow(ctx, fts, pws, r.cp.inputCols, rep); err != nil {
		return err
	}
	if err := p.profilePaper(r.cp, p.eng[0].model, o.scaled(r.w.valCycles, 200), o.seed); err != nil {
		return err
	}
	p.emit(rep, r.w.shards > 1)
	p.writeSpans(o, rep)
	return nil
}

func poolTraces(cp *corpus) ([]*trace.Functional, []*trace.Power) {
	var fts []*trace.Functional
	var pws []*trace.Power
	for _, s := range cp.sessions {
		fts = append(fts, s.ft)
		pws = append(pws, s.pw)
	}
	return fts, pws
}

// traceBatch is the traced half of the batch workload: every IP's
// training traces go through the stream and shard layers as NDJSON
// sessions, the flow one stage at a time, and the validation stimulus
// through the simulator with its observers timed apart.
func traceBatch(ctx context.Context, ips []*batchIP, o *options, rep *report) error {
	p := newProfile()
	for _, ip := range ips {
		cp := &corpus{ip: ip.c, inputCols: ip.ts.InputCols}
		for _, col := range ip.ts.InputCols {
			cp.inputs = append(cp.inputs, ip.ts.FTs[0].Signals[col].Name)
		}
		ups := make([]op, len(ip.ts.FTs))
		for i, ft := range ip.ts.FTs {
			body, err := ndjson(ft, ip.ts.PWs[i], ip.ts.InputCols)
			if err != nil {
				return err
			}
			cp.sessions = append(cp.sessions, &session{ft: ft, pw: ip.ts.PWs[i], body: body})
			ups[i] = op{kind: "upload", session: i, ok: true}
		}
		var want bytes.Buffer
		if err := ip.model.WriteJSON(&want); err != nil {
			return err
		}
		plain, err := replay(ctx, cp, ups, replayShape{}, nil)
		if err != nil {
			return err
		}
		sameModel(plain.model, want.Bytes(), "untraced", rep)
		if err := p.profileStream(ctx, cp, ups, plain, replayShape{}, 2, false, want.Bytes(), rep); err != nil {
			return err
		}
		if err := p.profileFlow(ctx, ip.ts.FTs, ip.ts.PWs, ip.ts.InputCols, rep); err != nil {
			return err
		}
		if err := p.profilePaper(cp, ip.model, o.scaled(2048, 2*rateChunk), o.seed); err != nil {
			return err
		}
	}
	p.emit(rep, false)
	// No HTTP on batch: the gap is the untraced build's wall time minus
	// the traced stages' sum, per IP build.
	rep.set("serve.gap_ms_p50", quantile(p.buildGaps, 0.5))
	p.writeSpans(o, rep)
	return nil
}
