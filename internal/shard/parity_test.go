package shard_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"psmkit/internal/logic"
	"psmkit/internal/mining"
	"psmkit/internal/pipeline"
	"psmkit/internal/psm"
	"psmkit/internal/shard"
	"psmkit/internal/stream"
	"psmkit/internal/trace"
)

// shardCounts is the fleet-size sweep every parity property runs over:
// 1 pins that a one-shard fleet degenerates to the single engine, the
// rest pin that the cross-shard join is invariant in the partition.
var shardCounts = []int{1, 2, 4, 8}

// parityCase is one randomized trace set fed to every flow, mirroring
// the stream parity suite's generator (run-structured control signals,
// power tracking the control state) with a higher trace count so that
// several shards actually receive sessions.
type parityCase struct {
	fts    []*trace.Functional
	pws    []*trace.Power
	cols   []int
	inputs []string
}

func genParityCase(rng *rand.Rand) parityCase {
	sigs := []trace.Signal{
		{Name: "en", Width: 1},
		{Name: "busy", Width: 1},
		{Name: "op", Width: 2},
		{Name: "a", Width: 4},
		{Name: "b", Width: 4},
	}
	nTraces := 2 + rng.Intn(5)
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

// batchModel is the ground truth: pipeline.BuildModel over the given
// traces in the given order.
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

func exports(t testing.TB, m *psm.Model) (string, string) {
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

func newCoordinator(c parityCase, shards, workers int) *shard.Coordinator {
	mcfg, merge, cal := flowPolicies()
	return shard.New(shard.Config{
		Shards: shards,
		Stream: stream.Config{
			Workers:     workers,
			Mining:      mcfg,
			Merge:       merge,
			Calibration: cal,
			Inputs:      c.inputs,
		},
	})
}

// interleave streams every trace of the case through the coordinator
// with the given record schedule and returns the canonical global trace
// order: shard-major, each shard's sessions in completion order — the
// order the cross-shard snapshot pins itself to. Session ids are the
// trace numbers, so the consistent-hash routing (not the test) decides
// which shard each trace lands on.
func interleave(t testing.TB, co *shard.Coordinator, c parityCase, rng *rand.Rand,
	pick func(rng *rand.Rand, open []int) int) []int {
	t.Helper()
	ctx := context.Background()
	sessions := make([]*shard.Session, len(c.fts))
	next := make([]int, len(c.fts))
	var open []int
	for i := range c.fts {
		s, err := co.Open(ctx, fmt.Sprintf("trace-%d", i), c.fts[i].Signals)
		if err != nil {
			t.Fatalf("open session %d: %v", i, err)
		}
		sessions[i] = s
		open = append(open, i)
	}
	type done struct{ shardIdx, local, traceIdx int }
	var closed []done
	for len(open) > 0 {
		k := pick(rng, open)
		i := open[k]
		r := next[i]
		if err := sessions[i].AppendRows([][]logic.Vector{c.fts[i].Row(r)}, []float64{c.pws[i].Values[r]}); err != nil {
			t.Fatalf("append trace %d record %d: %v", i, r, err)
		}
		next[i]++
		if next[i] == c.fts[i].Len() {
			local, rows, err := sessions[i].Close(ctx)
			if err != nil {
				t.Fatalf("close trace %d: %v", i, err)
			}
			if rows != c.fts[i].Len() {
				t.Fatalf("close trace %d: %d rows landed, want %d", i, rows, c.fts[i].Len())
			}
			closed = append(closed, done{sessions[i].Shard(), local, i})
			open = append(open[:k], open[k+1:]...)
		}
	}
	sort.Slice(closed, func(a, b int) bool {
		if closed[a].shardIdx != closed[b].shardIdx {
			return closed[a].shardIdx < closed[b].shardIdx
		}
		return closed[a].local < closed[b].local
	})
	order := make([]int, len(closed))
	for i, d := range closed {
		order[i] = d.traceIdx
	}
	return order
}

// TestCrossShardMatchesBatch is the cross-shard equivalence property
// suite — the tentpole guarantee: for seeded random trace sets, several
// session-interleaving schedules and every shard count, the
// coordinator's snapshot must export byte-identical JSON and DOT to
// pipeline.BuildModel (and hence to the single-engine path, pinned
// equal to batch by the stream parity suite) over the same traces in
// canonical shard-major order.
func TestCrossShardMatchesBatch(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	schedules := []struct {
		name string
		pick func(rng *rand.Rand, open []int) int
	}{
		{"sequential", func(_ *rand.Rand, open []int) int { return 0 }},
		{"round-robin", func(_ *rand.Rand, open []int) int { return rrCounter() % len(open) }},
		{"random", func(rng *rand.Rand, open []int) int { return rng.Intn(len(open)) }},
		{"reverse", func(_ *rand.Rand, open []int) int { return len(open) - 1 }},
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		c := genParityCase(rng)
		for _, n := range shardCounts {
			for _, sched := range schedules {
				rrReset()
				co := newCoordinator(c, n, 1+seed%4)
				order := interleave(t, co, c, rng, sched.pick)

				live, liveErr := co.Snapshot(context.Background())
				batch, batchErr := batchModel(c, order)
				if (liveErr != nil) != (batchErr != nil) {
					t.Fatalf("seed %d shards %d %s: shard err %v, batch err %v (order %v)",
						seed, n, sched.name, liveErr, batchErr, order)
				}
				if liveErr != nil {
					co.Close()
					continue
				}
				ld, lj := exports(t, live)
				bd, bj := exports(t, batch)
				if ld != bd {
					t.Fatalf("seed %d shards %d %s order %v: DOT exports differ\nshard:\n%s\nbatch:\n%s",
						seed, n, sched.name, order, ld, bd)
				}
				if lj != bj {
					t.Fatalf("seed %d shards %d %s order %v: JSON exports differ", seed, n, sched.name, order)
				}

				// A repeat snapshot reuses the shard epoch caches and the
				// cross-snapshot verdict memo (the delta path) and must stay
				// byte-identical too.
				again, err := co.Snapshot(context.Background())
				if err != nil {
					t.Fatalf("seed %d shards %d %s: repeat snapshot: %v", seed, n, sched.name, err)
				}
				ad, aj := exports(t, again)
				if ad != bd || aj != bj {
					t.Fatalf("seed %d shards %d %s order %v: delta-path snapshot diverges from batch",
						seed, n, sched.name, order)
				}
				m := co.Metrics()
				if m.Snapshots != m.Rebuilds+m.DeltaSnapshots {
					t.Fatalf("seed %d shards %d %s: %d snapshots ≠ %d rebuilds + %d delta",
						seed, n, sched.name, m.Snapshots, m.Rebuilds, m.DeltaSnapshots)
				}
				if m.DeltaSnapshots < 1 {
					t.Fatalf("seed %d shards %d %s: repeat snapshot did not take the delta path", seed, n, sched.name)
				}
				if m.TracesCompleted != len(c.fts) {
					t.Fatalf("seed %d shards %d %s: %d traces completed, want %d",
						seed, n, sched.name, m.TracesCompleted, len(c.fts))
				}
				co.Close()
			}
		}
	}
}

var rrN int

func rrCounter() int { rrN++; return rrN - 1 }
func rrReset()       { rrN = 0 }

// TestCrossShardSnapshotAfterEveryTrace exercises the incremental global
// path: snapshot after each completed session and compare with batch
// over the canonical prefix. Early snapshots move the globally-selected
// kept atom set (global epoch rebuilds, shard cache rebuilds), later
// ones reuse every shard's epoch cache.
func TestCrossShardSnapshotAfterEveryTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	c := genParityCase(rng)
	for len(c.fts) < 3 {
		c = genParityCase(rng)
	}
	co := newCoordinator(c, 4, 2)
	defer co.Close()
	ctx := context.Background()

	type done struct{ shardIdx, local, traceIdx int }
	var closed []done
	for i := range c.fts {
		s, err := co.Open(ctx, fmt.Sprintf("trace-%d", i), c.fts[i].Signals)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < c.fts[i].Len(); r++ {
			if err := s.AppendRows([][]logic.Vector{c.fts[i].Row(r)}, []float64{c.pws[i].Values[r]}); err != nil {
				t.Fatal(err)
			}
		}
		local, _, err := s.Close(ctx)
		if err != nil {
			t.Fatal(err)
		}
		closed = append(closed, done{s.Shard(), local, i})

		canon := append([]done(nil), closed...)
		sort.Slice(canon, func(a, b int) bool {
			if canon[a].shardIdx != canon[b].shardIdx {
				return canon[a].shardIdx < canon[b].shardIdx
			}
			return canon[a].local < canon[b].local
		})
		order := make([]int, len(canon))
		for j, d := range canon {
			order[j] = d.traceIdx
		}

		live, liveErr := co.Snapshot(ctx)
		batch, batchErr := batchModel(c, order)
		if (liveErr != nil) != (batchErr != nil) {
			t.Fatalf("prefix %v: shard err %v, batch err %v", order, liveErr, batchErr)
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
}

// TestCrossShardProvenanceMatchesSingleEngine pins the audit trail: the
// coordinator's provenance replay must record exactly the decision
// sequence a single engine fed the canonical session order records.
func TestCrossShardProvenanceMatchesSingleEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := genParityCase(rng)
	ctx := context.Background()
	for _, n := range shardCounts {
		co := newCoordinator(c, n, 2)
		order := interleave(t, co, c, rng, func(rng *rand.Rand, open []int) int { return rng.Intn(len(open)) })

		mcfg, merge, cal := flowPolicies()
		eng := stream.NewEngine(stream.Config{
			Workers: 2, Mining: mcfg, Merge: merge, Calibration: cal, Inputs: c.inputs,
		})
		for _, i := range order {
			s, err := eng.Open(c.fts[i].Signals)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < c.fts[i].Len(); r++ {
				if err := s.AppendBatch([][]logic.Vector{c.fts[i].Row(r)}, c.pws[i].Values[r:r+1]); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}

		got, gotErr := co.Provenance(ctx)
		want, wantErr := eng.Provenance(ctx)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("shards %d: shard err %v, engine err %v", n, gotErr, wantErr)
		}
		if gotErr == nil {
			if len(got) == 0 {
				t.Fatalf("shards %d: empty provenance log", n)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shards %d: provenance decision sequences differ (%d vs %d decisions)",
					n, len(got), len(want))
			}
		}
		co.Close()
	}
}

// TestCrossShardLinesPathMatchesRows pins the worker-side NDJSON parse:
// streaming framed record lines (the serve hot path) must produce the
// same model bytes as streaming decoded rows.
func TestCrossShardLinesPathMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	c := genParityCase(rng)
	ctx := context.Background()

	viaRows := newCoordinator(c, 4, 2)
	defer viaRows.Close()
	viaLines := newCoordinator(c, 4, 2)
	defer viaLines.Close()

	for i := range c.fts {
		id := fmt.Sprintf("trace-%d", i)
		sr, err := viaRows.Open(ctx, id, c.fts[i].Signals)
		if err != nil {
			t.Fatal(err)
		}
		sl, err := viaLines.Open(ctx, id, c.fts[i].Signals)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		records := 0
		for r := 0; r < c.fts[i].Len(); r++ {
			row := c.fts[i].Row(r)
			if err := sr.AppendRows([][]logic.Vector{row}, []float64{c.pws[i].Values[r]}); err != nil {
				t.Fatal(err)
			}
			buf.WriteString(`{"v":[`)
			for j, v := range row {
				if j > 0 {
					buf.WriteByte(',')
				}
				fmt.Fprintf(&buf, "%q", v.Hex())
			}
			fmt.Fprintf(&buf, `],"p":%g}`, c.pws[i].Values[r])
			buf.WriteByte('\n')
			records++
			// Flush in irregular chunks so batch boundaries differ from
			// record boundaries.
			if records == 7 || buf.Len() > 1<<10 {
				if err := sl.AppendLines(append([]byte(nil), buf.Bytes()...), records, 2+r-records+1); err != nil {
					t.Fatal(err)
				}
				buf.Reset()
				records = 0
			}
		}
		if records > 0 {
			if err := sl.AppendLines(append([]byte(nil), buf.Bytes()...), records, 2+c.fts[i].Len()-records); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := sr.Close(ctx); err != nil {
			t.Fatal(err)
		}
		if _, _, err := sl.Close(ctx); err != nil {
			t.Fatal(err)
		}
	}

	a, err := viaRows.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b, err := viaLines.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ad, aj := exports(t, a)
	bd, bj := exports(t, b)
	if ad != bd || aj != bj {
		t.Fatal("lines-path model differs from rows-path model")
	}
}
