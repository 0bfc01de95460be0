package shard_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"psmkit/internal/logic"
	"psmkit/internal/obs"
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

// flowConfig is the paper flow's default policies at the given worker
// count.
func flowConfig(workers int) pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.Workers = workers
	return cfg
}

// batchModel is the ground truth: pipeline.BuildModel over the given
// traces in the given order.
func batchModel(c parityCase, traces []int) (*psm.Model, error) {
	var fts []*trace.Functional
	var pws []*trace.Power
	for _, i := range traces {
		fts = append(fts, c.fts[i])
		pws = append(pws, c.pws[i])
	}
	return pipeline.BuildModel(context.Background(), fts, pws, c.cols, flowConfig(2))
}

// appendRecord frames one record as an NDJSON line and hands it to the
// session's shard — the AppendLines path psmd runs. line is the
// record's 1-based line in the upload (the header is line 1).
func appendRecord(s *shard.Session, row []logic.Vector, power float64, line int) error {
	var buf bytes.Buffer
	enc := stream.NewEncoder(&buf)
	if err := enc.WriteRow(row, power); err != nil {
		return err
	}
	if err := enc.Flush(); err != nil {
		return err
	}
	return s.AppendLines(buf.Bytes(), 1, line)
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
	return shard.New(shard.Config{
		Shards: shards,
		Stream: stream.Config{Config: flowConfig(workers), Inputs: c.inputs},
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
		if err := appendRecord(sessions[i], c.fts[i].Row(r), c.pws[i].Values[r], 2+r); err != nil {
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

				// No session completed since, so a repeat snapshot is the
				// same generation: the cached model itself, not a rebuild,
				// and it still counts as one model built.
				again, err := co.Snapshot(context.Background())
				if err != nil {
					t.Fatalf("seed %d shards %d %s: repeat snapshot: %v", seed, n, sched.name, err)
				}
				if again != live {
					t.Fatalf("seed %d shards %d %s: repeat snapshot rebuilt the model instead of reusing it", seed, n, sched.name)
				}
				m := co.Metrics()
				if m.Snapshots != 1 || m.Snapshots != m.Rebuilds+m.DeltaSnapshots {
					t.Fatalf("seed %d shards %d %s: %d snapshots (%d rebuilds + %d delta), want 1 model built",
						seed, n, sched.name, m.Snapshots, m.Rebuilds, m.DeltaSnapshots)
				}
				if hits := co.Registry().Snapshot().Counters["psmd_snapshots_cached_total"]; hits != 1 {
					t.Fatalf("seed %d shards %d %s: %d cached snapshots, want 1", seed, n, sched.name, hits)
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
			if err := appendRecord(s, c.fts[i].Row(r), c.pws[i].Values[r], 2+r); err != nil {
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

// TestCrossShardLinesPathMatchesRows pins the worker-side NDJSON parse:
// streaming framed record lines in irregular chunks through a 4-shard
// coordinator (the psmd ingest path) must produce the same model bytes
// as one engine fed the decoded rows in canonical order.
func TestCrossShardLinesPathMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	c := genParityCase(rng)
	ctx := context.Background()

	viaLines := newCoordinator(c, 4, 2)
	defer viaLines.Close()

	type done struct{ shardIdx, local, traceIdx int }
	var closed []done
	for i := range c.fts {
		sl, err := viaLines.Open(ctx, fmt.Sprintf("trace-%d", i), c.fts[i].Signals)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		records := 0
		for r := 0; r < c.fts[i].Len(); r++ {
			row := c.fts[i].Row(r)
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
		local, _, err := sl.Close(ctx)
		if err != nil {
			t.Fatal(err)
		}
		closed = append(closed, done{sl.Shard(), local, i})
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
	a := engineSnapshot(t, c, order)
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

// engineSnapshot is the single-engine reference: a fresh stream.Engine
// fed the case's traces in the given order as decoded rows, snapshotted
// once.
func engineSnapshot(t testing.TB, c parityCase, order []int) *psm.Model {
	t.Helper()
	eng := stream.NewEngine(stream.Config{Config: flowConfig(2), Inputs: c.inputs})
	for _, i := range order {
		ft, n := c.fts[i], c.fts[i].Len()
		s, err := eng.Open(ft.Signals)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([][]logic.Vector, n)
		for r := range rows {
			rows[r] = ft.Row(r)
		}
		if err := s.AppendBatch(rows, c.pws[i].Values[:n]); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	m, err := eng.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSnapshotGenerationReuse pins the one-build-per-generation rule at
// shard counts {1,2,4}. With no session completed since the last
// successful snapshot, Snapshot returns that same model: counted as
// cached, not as built, landing no join-latency sample, its span marked
// fold=cached, and its bytes equal to a fresh single engine's snapshot
// over the same sessions in canonical order. A cancelled snapshot is
// not cached, and the next completed session makes a new generation.
func TestSnapshotGenerationReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	c := genParityCase(rng)
	for len(c.fts) < 4 {
		c = genParityCase(rng)
	}
	ctx := context.Background()
	last := len(c.fts) - 1
	head := c
	head.fts, head.pws = c.fts[:last], c.pws[:last]
	for _, n := range []int{1, 2, 4} {
		co := newCoordinator(c, n, 2)
		order := interleave(t, co, head, rng, func(*rand.Rand, []int) int { return 0 })
		first, err := co.Snapshot(ctx)
		if err != nil {
			t.Fatalf("shards %d: %v", n, err)
		}
		var events bytes.Buffer
		again, err := co.Snapshot(obs.WithTracer(ctx, obs.NewTracer(&events)))
		if err != nil {
			t.Fatalf("shards %d: repeat snapshot: %v", n, err)
		}
		if again != first {
			t.Fatalf("shards %d: repeat snapshot over the same sessions built a new model", n)
		}
		if fold := snapshotAttr(t, events.Bytes(), "fold"); fold != "cached" {
			t.Fatalf("shards %d: repeat snapshot took the %v fold, want cached", n, fold)
		}
		ad, aj := exports(t, again)
		wd, wj := exports(t, engineSnapshot(t, c, order))
		if ad != wd || aj != wj {
			t.Fatalf("shards %d order %v: cached model differs from a fresh engine's", n, order)
		}
		m := co.Metrics()
		samples := 0
		for _, k := range m.JoinLatency {
			samples += k
		}
		hits := func() int64 { return co.Registry().Snapshot().Counters["psmd_snapshots_cached_total"] }
		if m.Snapshots != 1 || m.Snapshots != m.Rebuilds+m.DeltaSnapshots || samples != 1 || hits() != 1 {
			t.Fatalf("shards %d: %d built (%d rebuilds + %d delta), %d latency samples, %d cached; want 1/1/1",
				n, m.Snapshots, m.Rebuilds, m.DeltaSnapshots, samples, hits())
		}

		// A new completed session makes a new generation; a cancelled
		// snapshot of it is not cached.
		s, err := co.Open(ctx, "the-last", c.fts[last].Signals)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < c.fts[last].Len(); r++ {
			if err := appendRecord(s, c.fts[last].Row(r), c.pws[last].Values[r], 2+r); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := s.Close(ctx); err != nil {
			t.Fatal(err)
		}
		cctx, cancel := context.WithCancel(ctx)
		cancel()
		if _, err := co.Snapshot(cctx); err == nil {
			t.Fatalf("shards %d: a cancelled snapshot of a new session succeeded", n)
		}
		next, err := co.Snapshot(ctx)
		if err != nil {
			t.Fatalf("shards %d: snapshot after the cancelled one: %v", n, err)
		}
		if next == first {
			t.Fatalf("shards %d: a completed session did not make a new generation", n)
		}
		shardOf := func(i int) int {
			if i == last {
				return s.Shard()
			}
			return co.ShardOf(fmt.Sprintf("trace-%d", i))
		}
		full := append(append([]int(nil), order...), last)
		sort.SliceStable(full, func(a, b int) bool { return shardOf(full[a]) < shardOf(full[b]) })
		nd, nj := exports(t, next)
		wd, wj = exports(t, engineSnapshot(t, c, full))
		if nd != wd || nj != wj {
			t.Fatalf("shards %d order %v: the generation after a cancelled snapshot differs from a fresh engine's", n, full)
		}
		if again, err := co.Snapshot(ctx); err != nil || again != next {
			t.Fatalf("shards %d: the new generation was not reused (%v)", n, err)
		}
		if m := co.Metrics(); m.Snapshots != 2 || hits() != 2 {
			t.Fatalf("shards %d: %d built, %d cached after the new generation; want 2/2", n, m.Snapshots, hits())
		}
		co.Close()
	}
}

// TestPersistentFoldSchedule pins the persistent cross-shard fold on a
// 2-shard schedule whose closes go to shard 1, shard 1, then shard 0,
// with a snapshot after each. The second snapshot extends the fold
// (delta: shard 1 is the last shard folded, nothing before it grew);
// the third must start over (fresh: shard 0 gained a chain that
// precedes shard 1's in the shard-major order). Every snapshot must
// byte-equal pipeline.BuildModel over the shard-major prefix.
func TestPersistentFoldSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := genParityCase(rng)
	for len(c.fts) < 3 {
		c = genParityCase(rng)
	}
	co := newCoordinator(c, 2, 2)
	defer co.Close()
	ctx := context.Background()

	idOn := func(shardIdx int, taken map[string]bool) string {
		for k := 0; ; k++ {
			if id := fmt.Sprintf("s-%d", k); !taken[id] && co.ShardOf(id) == shardIdx {
				taken[id] = true
				return id
			}
		}
	}
	taken := map[string]bool{}
	schedule := []struct{ shard, trace int }{{1, 0}, {1, 1}, {0, 2}}
	wantFold := []string{"fresh", "delta", "fresh"}
	var closed [2][]int // per shard: trace numbers in completion order
	for step, sc := range schedule {
		s, err := co.Open(ctx, idOn(sc.shard, taken), c.fts[sc.trace].Signals)
		if err != nil {
			t.Fatal(err)
		}
		if s.Shard() != sc.shard {
			t.Fatalf("step %d: session routed to shard %d, want %d", step, s.Shard(), sc.shard)
		}
		for r := 0; r < c.fts[sc.trace].Len(); r++ {
			if err := appendRecord(s, c.fts[sc.trace].Row(r), c.pws[sc.trace].Values[r], 2+r); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := s.Close(ctx); err != nil {
			t.Fatal(err)
		}
		closed[sc.shard] = append(closed[sc.shard], sc.trace)

		var events bytes.Buffer
		live, err := co.Snapshot(obs.WithTracer(ctx, obs.NewTracer(&events)))
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if fold := snapshotAttr(t, events.Bytes(), "fold"); fold != wantFold[step] {
			t.Fatalf("step %d: snapshot took the %v fold, want %s", step, fold, wantFold[step])
		}
		order := append(append([]int(nil), closed[0]...), closed[1]...)
		batch, err := batchModel(c, order)
		if err != nil {
			t.Fatalf("step %d: batch: %v", step, err)
		}
		ld, lj := exports(t, live)
		bd, bj := exports(t, batch)
		if ld != bd || lj != bj {
			t.Fatalf("step %d order %v: snapshot differs from batch", step, order)
		}
	}
}

// snapshotAttr returns one attribute of the "snapshot" span in an NDJSON
// span-event stream.
func snapshotAttr(t *testing.T, events []byte, key string) interface{} {
	t.Helper()
	for _, line := range bytes.Split(bytes.TrimSpace(events), []byte("\n")) {
		var ev struct {
			Name  string                 `json:"name"`
			Attrs map[string]interface{} `json:"attrs"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Name == "snapshot" {
			return ev.Attrs[key]
		}
	}
	t.Fatal("no snapshot span")
	return nil
}
