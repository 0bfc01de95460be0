package stream_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"psmkit/internal/logic"
	"psmkit/internal/mining"
	"psmkit/internal/obs"
	"psmkit/internal/pipeline"
	"psmkit/internal/psm"
	"psmkit/internal/stream"
	"psmkit/internal/trace"
)

// parityCase is one randomized trace set fed to both flows.
type parityCase struct {
	fts    []*trace.Functional
	pws    []*trace.Power
	cols   []int
	inputs []string
}

// genParityCase mirrors the pipeline property suite's generator: a
// mixed-width schema, run-structured control signals (so the miner keeps
// stable atoms) and a power level tracking the control state, so every
// stage — selection, simplify, join, calibration — makes real decisions.
func genParityCase(rng *rand.Rand) parityCase {
	sigs := []trace.Signal{
		{Name: "en", Width: 1},
		{Name: "busy", Width: 1},
		{Name: "op", Width: 2},
		{Name: "a", Width: 4},
		{Name: "b", Width: 4},
	}
	nTraces := 1 + rng.Intn(4)
	c := parityCase{cols: []int{0, 2, 3}, inputs: []string{"en", "op", "a"}}
	for i := 0; i < nTraces; i++ {
		n := 30 + rng.Intn(170)
		ft := trace.NewFunctional(sigs)
		pw := &trace.Power{}
		row := make([]logic.Vector, len(sigs))
		for j, s := range sigs {
			row[j] = logic.FromUint64(s.Width, uint64(rng.Intn(1<<uint(s.Width))))
		}
		for t := 0; t < n; t++ {
			for j, s := range sigs {
				p := 0.08
				if s.Width > 2 {
					p = 0.4
				}
				if rng.Float64() < p {
					row[j] = logic.FromUint64(s.Width, uint64(rng.Intn(1<<uint(s.Width))))
				}
			}
			ft.Append(row)
			level := 1.0
			if row[0].Bit(0) == 1 {
				level += 2.5
			}
			if row[1].Bit(0) == 1 {
				level += 1.2
			}
			hw := 0.0
			for b := 0; b < 4; b++ {
				hw += float64(row[3].Bit(b))
			}
			pw.Values = append(pw.Values, level+0.15*hw+0.01*rng.NormFloat64())
		}
		c.fts = append(c.fts, ft)
		c.pws = append(c.pws, pw)
	}
	return c
}

func flowPolicies() (mining.Config, psm.MergePolicy, psm.CalibrationPolicy) {
	return mining.DefaultConfig(), psm.DefaultMergePolicy(), psm.DefaultCalibrationPolicy()
}

func batchModel(c parityCase, traces []int) (*psm.Model, error) {
	mcfg, merge, cal := flowPolicies()
	var fts []*trace.Functional
	var pws []*trace.Power
	for _, i := range traces {
		fts = append(fts, c.fts[i])
		pws = append(pws, c.pws[i])
	}
	cfg := pipeline.Config{Workers: 2, Mining: mcfg, Merge: merge, Calibration: cal}
	return pipeline.BuildModel(context.Background(), fts, pws, c.cols, cfg)
}

func exports(t *testing.T, m *psm.Model) (string, string) {
	t.Helper()
	var dot, js bytes.Buffer
	if err := m.WriteDOT(&dot, "m"); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	return dot.String(), js.String()
}

func newTestEngine(c parityCase) *stream.Engine { return newTestEngineWorkers(c, 2) }

func newTestEngineWorkers(c parityCase, workers int) *stream.Engine {
	mcfg, merge, cal := flowPolicies()
	return stream.NewEngine(stream.Config{
		Workers:     workers,
		Mining:      mcfg,
		Merge:       merge,
		Calibration: cal,
		Inputs:      c.inputs,
	})
}

// interleave streams every trace of the case into the engine with the
// given record schedule and returns the completion order. Sessions all
// open up front; pick(rng, open) chooses which open session advances one
// record. A session closes when its records are exhausted — so the
// completion order (= the model's trace order) is determined by the
// schedule, not by the case's trace numbering.
func interleave(t *testing.T, e *stream.Engine, c parityCase, rng *rand.Rand,
	pick func(rng *rand.Rand, open []int) int) []int {
	t.Helper()
	sessions := make([]*stream.Session, len(c.fts))
	next := make([]int, len(c.fts))
	var open []int
	for i := range c.fts {
		s, err := e.Open(c.fts[i].Signals)
		if err != nil {
			t.Fatalf("open session %d: %v", i, err)
		}
		sessions[i] = s
		open = append(open, i)
	}
	var order []int
	for len(open) > 0 {
		k := pick(rng, open)
		i := open[k]
		if err := sessions[i].Append(c.fts[i].Row(next[i]), c.pws[i].Values[next[i]]); err != nil {
			t.Fatalf("append trace %d record %d: %v", i, next[i], err)
		}
		next[i]++
		if next[i] == c.fts[i].Len() {
			idx, err := sessions[i].Close()
			if err != nil {
				t.Fatalf("close trace %d: %v", i, err)
			}
			if idx != len(order) {
				t.Fatalf("close of trace %d assigned index %d, want %d", i, idx, len(order))
			}
			order = append(order, i)
			open = append(open[:k], open[k+1:]...)
		}
	}
	return order
}

// TestStreamingMatchesBatch is the streaming-equivalence property suite:
// for seeded random trace sets and several session-interleaving orders,
// the engine's snapshot must export byte-identical JSON and DOT to
// pipeline.BuildModel over the same traces in completion order.
func TestStreamingMatchesBatch(t *testing.T) {
	seeds := 16
	if testing.Short() {
		seeds = 4
	}
	schedules := []struct {
		name string
		pick func(rng *rand.Rand, open []int) int
	}{
		// One session at a time, in trace order: the batch shape.
		{"sequential", func(_ *rand.Rand, open []int) int { return 0 }},
		// Strict round-robin across all open sessions: shortest closes
		// first, so completion order differs from trace numbering.
		{"round-robin", func(_ *rand.Rand, open []int) int { return rrCounter() % len(open) }},
		// Randomized interleaving.
		{"random", func(rng *rand.Rand, open []int) int { return rng.Intn(len(open)) }},
		// Reverse order: the last trace streams (and completes) first.
		{"reverse", func(_ *rand.Rand, open []int) int { return len(open) - 1 }},
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		c := genParityCase(rng)
		for _, sched := range schedules {
			rrReset()
			// Sweep the fan-out width with the seed so the suite pins
			// byte-parity for every worker count, not just the default.
			e := newTestEngineWorkers(c, 1+seed%4)
			order := interleave(t, e, c, rng, sched.pick)

			live, liveErr := e.Snapshot(context.Background())
			batch, batchErr := batchModel(c, order)
			if (liveErr != nil) != (batchErr != nil) {
				t.Fatalf("seed %d %s: stream err %v, batch err %v (order %v)",
					seed, sched.name, liveErr, batchErr, order)
			}
			if liveErr != nil {
				continue
			}
			ld, lj := exports(t, live)
			bd, bj := exports(t, batch)
			if ld != bd {
				t.Fatalf("seed %d %s order %v: DOT exports differ\nstream:\n%s\nbatch:\n%s",
					seed, sched.name, order, ld, bd)
			}
			if lj != bj {
				t.Fatalf("seed %d %s order %v: JSON exports differ", seed, sched.name, order)
			}

			// A repeat snapshot takes the warm delta path — nothing new to
			// fold, only the fixpoint over the kept states — and must stay
			// byte-identical to the batch export too.
			again, err := e.Snapshot(context.Background())
			if err != nil {
				t.Fatalf("seed %d %s: repeat snapshot: %v", seed, sched.name, err)
			}
			ad, aj := exports(t, again)
			if ad != bd || aj != bj {
				t.Fatalf("seed %d %s order %v: delta-path snapshot diverges from batch", seed, sched.name, order)
			}
			m := e.Metrics()
			if m.Snapshots != m.Rebuilds+m.DeltaSnapshots {
				t.Fatalf("seed %d %s: %d snapshots ≠ %d rebuilds + %d delta",
					seed, sched.name, m.Snapshots, m.Rebuilds, m.DeltaSnapshots)
			}
			if m.DeltaSnapshots < 1 {
				t.Fatalf("seed %d %s: repeat snapshot did not take the delta path", seed, sched.name)
			}
		}
	}
}

var rrN int

func rrCounter() int { rrN++; return rrN - 1 }
func rrReset()       { rrN = 0 }

// TestSnapshotAfterEveryTrace exercises the incremental path: snapshot
// after each completed session and compare with the batch flow over the
// completed prefix. Early snapshots change the kept atom set as evidence
// accumulates, forcing epoch rebuilds; later ones take the incremental
// fold. Both must stay byte-identical to batch.
func TestSnapshotAfterEveryTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	c := genParityCase(rng)
	for len(c.fts) < 3 { // ensure a real prefix progression
		c = genParityCase(rng)
	}
	e := newTestEngine(c)

	var order []int
	for i := range c.fts {
		s, err := e.Open(c.fts[i].Signals)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < c.fts[i].Len(); r++ {
			if err := s.Append(c.fts[i].Row(r), c.pws[i].Values[r]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Close(); err != nil {
			t.Fatal(err)
		}
		order = append(order, i)

		live, liveErr := e.Snapshot(context.Background())
		batch, batchErr := batchModel(c, order)
		if (liveErr != nil) != (batchErr != nil) {
			t.Fatalf("prefix %v: stream err %v, batch err %v", order, liveErr, batchErr)
		}
		if liveErr != nil {
			continue
		}
		ld, lj := exports(t, live)
		bd, bj := exports(t, batch)
		if ld != bd || lj != bj {
			t.Fatalf("prefix %v: exports differ from batch", order)
		}
	}
	m := e.Metrics()
	if m.Snapshots != len(c.fts) {
		t.Fatalf("metrics report %d snapshots, want %d", m.Snapshots, len(c.fts))
	}
	if m.TracesCompleted != len(c.fts) {
		t.Fatalf("metrics report %d traces, want %d", m.TracesCompleted, len(c.fts))
	}
}

// TestSnapshotIsRepeatable: two snapshots with no ingestion in between
// must export identical bytes (the clone-before-collapse discipline — a
// served model must not corrupt the live fold).
func TestSnapshotIsRepeatable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := genParityCase(rng)
	e := newTestEngine(c)
	interleave(t, e, c, rng, func(rng *rand.Rand, open []int) int { return rng.Intn(len(open)) })

	a, err := e.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ad, aj := exports(t, a)
	bd, bj := exports(t, b)
	if ad != bd || aj != bj {
		t.Fatal("back-to-back snapshots differ: a snapshot mutated the live pool")
	}
}

// TestAbortedSessionLeavesNoTrace: an aborted upload must not influence
// the model.
func TestAbortedSessionLeavesNoTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := genParityCase(rng)
	e := newTestEngine(c)

	// Stream trace 0 fully, then abort a partial re-stream of it.
	s, err := e.Open(c.fts[0].Signals)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < c.fts[0].Len(); r++ {
		if err := s.Append(c.fts[0].Row(r), c.pws[0].Values[r]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
	dead, err := e.Open(c.fts[0].Signals)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 5; r++ {
		if err := dead.Append(c.fts[0].Row(r), c.pws[0].Values[r]); err != nil {
			t.Fatal(err)
		}
	}
	dead.Abort()

	live, err := e.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	batch, err := batchModel(c, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	ld, lj := exports(t, live)
	bd, bj := exports(t, batch)
	if ld != bd || lj != bj {
		t.Fatal("aborted session influenced the model")
	}
	m := e.Metrics()
	if m.OpenSessions != 0 {
		t.Fatalf("%d sessions open after abort, want 0", m.OpenSessions)
	}
	if want := int64(c.fts[0].Len()); m.RecordsIngested != want {
		t.Fatalf("records ingested %d, want %d (abort must refund its records)", m.RecordsIngested, want)
	}
}

// TestSnapshotCancellation: a cancelled context aborts the snapshot and a
// later snapshot still matches batch (the cache stays consistent).
func TestSnapshotCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := genParityCase(rng)
	e := newTestEngine(c)
	order := interleave(t, e, c, rng, func(_ *rand.Rand, open []int) int { return 0 })

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Snapshot(ctx); err == nil {
		t.Fatal("snapshot under a cancelled context must fail")
	}

	live, err := e.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	batch, err := batchModel(c, order)
	if err != nil {
		t.Fatal(err)
	}
	ld, lj := exports(t, live)
	bd, bj := exports(t, batch)
	if ld != bd || lj != bj {
		t.Fatal("post-cancellation snapshot differs from batch")
	}
}

func ExampleEngine() {
	// Two one-signal traces streamed concurrently, record by record.
	sigs := []trace.Signal{{Name: "en", Width: 1}}
	e := stream.NewEngine(stream.Config{
		Mining:          mining.DefaultConfig(),
		Merge:           psm.DefaultMergePolicy(),
		SkipCalibration: true,
	})
	a, _ := e.Open(sigs)
	b, _ := e.Open(sigs)
	bits := [][]uint64{{0, 0, 1, 1, 0, 0, 1}, {1, 1, 0, 0, 1, 1, 0}}
	for t := 0; t < len(bits[0]); t++ {
		_ = a.Append([]logic.Vector{logic.FromUint64(1, bits[0][t])}, float64(bits[0][t]))
		_ = b.Append([]logic.Vector{logic.FromUint64(1, bits[1][t])}, float64(bits[1][t]))
	}
	a.Close()
	b.Close()
	m, _ := e.Snapshot(context.Background())
	fmt.Println("states:", m.NumStates())
	// Output:
	// states: 2
}

// genSteadyCase is a one-trace case for the steady-state pins. Its power
// is data dependent — a level per control state plus a slope on the
// primary-input Hamming distance — so the served states are high-CV and
// the snapshot's calibration fits them.
func genSteadyCase(rng *rand.Rand) parityCase {
	c := genParityCase(rng)
	c.fts, c.pws = c.fts[:1], c.pws[:1]
	hd := c.fts[0].InputHammingDistance(c.cols)
	for t := range hd {
		level := 1.0
		if c.fts[0].Row(t)[0].Bit(0) == 1 {
			level += 2.5
		}
		c.pws[0].Values[t] = level + 0.6*hd[t] + 0.01*rng.NormFloat64()
	}
	return c
}

// steadyEngine returns an engine with `total` copies of the case's
// first trace completed and one settled snapshot (epoch fixed, every
// chain folded), calibrating like psmd does.
func steadyEngine(t testing.TB, c parityCase, total int) *stream.Engine {
	t.Helper()
	e := newTestEngine(c)
	for k := 0; k < total; k++ {
		streamTrace(t, e, c, 0)
	}
	if _, err := e.Snapshot(context.Background()); err != nil {
		t.Fatal(err)
	}
	return e
}

// streamTrace streams the case's trace i in full and closes it.
func streamTrace(t testing.TB, e *stream.Engine, c parityCase, i int) {
	t.Helper()
	s, err := e.Open(c.fts[i].Signals)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < c.fts[i].Len(); r++ {
		if err := s.Append(c.fts[i].Row(r), c.pws[i].Values[r]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSteadyStateSnapshotCost pins the delta-snapshot guarantee in
// deterministic units: when one new chain arrives, the number of
// mergeability probes a snapshot performs (psm_merge_checks_total)
// depends on the kept-state count and the new chain — NOT on how many
// chains were pooled before. A 5× larger history must not cost more
// probes; the pre-incremental engine re-clustered the whole pool and
// paid proportionally to it. Calibration is on and fits states, yet it
// walks no stored sample (psm_calibrate_samples_total): the served
// states carry their sums.
func TestSteadyStateSnapshotCost(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	c := genSteadyCase(rng)

	probes := func(total int) int64 {
		e := steadyEngine(t, c, total)
		streamTrace(t, e, c, 0)
		reg := obs.NewRegistry()
		ctx := obs.WithRegistry(context.Background(), reg)
		if _, err := e.Snapshot(ctx); err != nil {
			t.Fatal(err)
		}
		m := e.Metrics()
		if m.DeltaSnapshots < 1 {
			t.Fatalf("pool=%d: measured snapshot did not take the delta path (%d rebuilds)", total, m.Rebuilds)
		}
		counters := reg.Snapshot().Counters
		if counters["psm_calibration_fits_total"] == 0 {
			t.Fatalf("pool=%d: the snapshot fitted no state — the case no longer exercises calibration", total)
		}
		if n := counters["psm_calibrate_samples_total"]; n != 0 {
			t.Fatalf("pool=%d: the delta snapshot's calibration walked %d stored samples, want 0", total, n)
		}
		return counters["psm_merge_checks_total"]
	}

	small := probes(6)
	large := probes(30)
	if small == 0 {
		t.Fatal("no mergeability probes counted — registry not reaching the join")
	}
	if large > 2*small {
		t.Fatalf("steady-state snapshot cost scales with pooled history: %d probes at pool=30 vs %d at pool=6",
			large, small)
	}
}

// BenchmarkSnapshotSteadyState measures the wall-clock of one
// steady-state cycle (stream one trace, snapshot) against histories of
// different depth: with delta snapshots the per-cycle cost is flat in
// the pooled total.
func BenchmarkSnapshotSteadyState(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	c := genSteadyCase(rng)
	for _, total := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("pooled=%d", total), func(b *testing.B) {
			e := steadyEngine(b, c, total)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				streamTrace(b, e, c, 0)
				if _, err := e.Snapshot(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
