package psm

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"psmkit/internal/stats"
)

// TestFindAliasDeepChain pins the union-find on a 5-deep alias cascade:
// every node resolves to the root, and the walked chain is fully
// compressed afterwards (each node points directly at the root).
func TestFindAliasDeepChain(t *testing.T) {
	alias := map[int]int{5: 4, 4: 3, 3: 2, 2: 1, 1: 0}
	if got := findAlias(alias, 5); got != 0 {
		t.Fatalf("findAlias(5) = %d, want 0", got)
	}
	for id := 1; id <= 5; id++ {
		if alias[id] != 0 {
			t.Fatalf("path not compressed: alias[%d] = %d, want 0", id, alias[id])
		}
	}
	if got := findAlias(alias, 7); got != 7 {
		t.Fatalf("findAlias of an unaliased id = %d, want 7", got)
	}
}

// TestCollapseCascadeResolvesTransitions drives collapse through a
// 4-deep merge cascade (4←3, 3←2, 2←1, 1←0 by id) and requires
// resolveTransitions to chase every endpoint to the sole survivor and
// aggregate the parallel edges it creates.
func TestCollapseCascadeResolvesTransitions(t *testing.T) {
	m := &Model{Initials: map[int]int{0: 1, 4: 2}}
	for i := 0; i < 5; i++ {
		m.States = append(m.States, &State{
			ID:        i,
			Alts:      []Alt{{Seq: Sequence{Phases: []Phase{{Prop: i, Kind: Until}}}, Count: 1}},
			Power:     stats.MomentsOf([]float64{1, 1}),
			Intervals: []Interval{{Trace: 0, Start: i, Stop: i}},
		})
	}
	for i := 0; i < 4; i++ {
		// One shared enabling prop, so the post-cascade self-loops are
		// parallel edges that must aggregate into a single transition.
		m.Transitions = append(m.Transitions, Transition{From: i, To: i + 1, Enabling: 9, Count: 1})
	}
	alias := map[int]int{}
	// Collapse back to front so each survivor is itself merged next:
	// alias chains 4→3→2→1→0 (depth 4).
	for id := 4; id >= 1; id-- {
		bi := -1
		for i, s := range m.States {
			if s.ID == id {
				bi = i
			}
		}
		collapse(m, alias, 0, bi)
	}
	if len(m.States) != 1 || m.States[0].ID != 0 {
		t.Fatalf("cascade left %d states (first id %d), want the single root 0",
			len(m.States), m.States[0].ID)
	}
	resolveTransitions(m, alias)
	if len(m.Transitions) != 1 {
		t.Fatalf("resolved transitions: %+v, want one aggregated self-loop", m.Transitions)
	}
	tr := m.Transitions[0]
	if tr.From != 0 || tr.To != 0 || tr.Count != 4 {
		t.Fatalf("aggregated transition %+v, want 0→0 with count 4", tr)
	}
	if m.Initials[0] != 3 {
		t.Fatalf("initials %v, want all 3 on the root", m.Initials)
	}
	if got := m.States[0].Power.N; got != 10 {
		t.Fatalf("pooled evidence n = %d, want 10", got)
	}
}

// randChains builds simplified-shaped chains (single-alt states, one
// initial per chain) for the Joiner equivalence property.
func randChains(rng *rand.Rand) []*Chain {
	levels := []float64{1.0, 1.04, 1.9, 2.0}
	nChains := 1 + rng.Intn(5)
	chains := make([]*Chain, nChains)
	for ci := range chains {
		n := 2 + rng.Intn(8)
		c := &Chain{Trace: ci}
		for i := 0; i < n; i++ {
			mu := levels[rng.Intn(len(levels))]
			var vals []float64
			for k := 0; k < 1+rng.Intn(20); k++ {
				vals = append(vals, mu+0.02*rng.NormFloat64())
			}
			c.States = append(c.States, &State{
				ID: i,
				Alts: []Alt{{
					Seq:   Sequence{Phases: []Phase{{Prop: rng.Intn(5), Kind: PatternKind(rng.Intn(2))}}},
					Count: 1,
				}},
				Power:     stats.MomentsOf(vals),
				Intervals: []Interval{{Trace: ci, Start: i * 5, Stop: i*5 + len(vals) - 1}},
			})
		}
		chains[ci] = c
	}
	return chains
}

// TestJoinerMatchesJoin is the streaming-fold equivalence property: for
// seeded random chain sets, folding chain by chain through a Joiner and
// snapshotting after every prefix must deeply equal the pooled oracle
// over that prefix — including intermediate snapshots, which is exactly
// what psmd serves between session completions. JoinCtx must match the
// oracle on the same sets under the default and the tight policies:
// model, provenance log and merge counters.
func TestJoinerMatchesJoin(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		chains := randChains(rng)
		j := NewJoiner(DefaultMergePolicy())
		for k, c := range chains {
			j.Add(ctx, c)
			got := j.Snapshot(ctx)
			want := joinOracle(ctx, chains[:k+1], DefaultMergePolicy())
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("seed %d prefix %d: joiner snapshot diverges from the pooled oracle (%d vs %d states)",
					seed, k+1, len(got.States), len(want.States))
			}
		}
		for _, pol := range append([]MergePolicy{DefaultMergePolicy()}, tightPolicies...) {
			CheckJoinMatchesOracle(t, chains, pol)
		}
	}
}

// TestJoinerSnapshotDoesNotMutateFold: snapshots collapse a clone, so
// consecutive snapshots with no Add in between must be deeply equal,
// and a snapshot must not corrupt a later incremental fold.
func TestJoinerSnapshotDoesNotMutateFold(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	chains := randChains(rng)
	j := NewJoiner(DefaultMergePolicy())
	for _, c := range chains[:len(chains)-1] {
		j.Add(ctx, c)
	}
	a := j.Snapshot(ctx)
	b := j.Snapshot(ctx)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("back-to-back joiner snapshots differ: the collapse mutated the fold")
	}
	j.Add(ctx, chains[len(chains)-1])
	got := j.Snapshot(ctx)
	want := joinOracle(ctx, chains, DefaultMergePolicy())
	if !reflect.DeepEqual(want, got) {
		t.Fatal("fold after an interleaved snapshot diverges from the pooled oracle")
	}
}

// TestJoinerResetReuseAcrossEpochs is the reuse-across-epochs
// regression test: Reset must void the fold, the verdict memo and its
// eval accounting atomically, leaving the joiner indistinguishable
// from a fresh NewJoiner — the second epoch's model and its memo
// counters must both equal a fresh joiner's over the same chains.
func TestJoinerResetReuseAcrossEpochs(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(9))
	epoch1 := randChains(rng)
	epoch2 := randChains(rng)

	j := NewJoiner(DefaultMergePolicy())
	for _, c := range epoch1 {
		j.Add(ctx, c)
	}
	j.Snapshot(ctx)
	if j.memo.Evals() == 0 || len(j.memo.m) == 0 {
		t.Fatalf("memo unused by the fold: %d evals, %d entries", j.memo.Evals(), len(j.memo.m))
	}

	j.Reset()
	if j.Pooled() != 0 {
		t.Fatalf("reset left %d pooled states", j.Pooled())
	}
	if n := len(j.memo.m); n != 0 {
		t.Fatalf("reset kept %d memoized verdicts, want 0", n)
	}
	if e := j.memo.Evals(); e != 0 {
		t.Fatalf("reset kept memo accounting: %d evals, want 0", e)
	}

	// Epoch 2 on the reused joiner vs a fresh one: identical model,
	// identical memo accounting — nothing of epoch 1 may leak through.
	fresh := NewJoiner(DefaultMergePolicy())
	for _, c := range epoch2 {
		j.Add(ctx, c)
		fresh.Add(ctx, c)
	}
	got, want := j.Snapshot(ctx), fresh.Snapshot(ctx)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("reused joiner diverges from a fresh joiner after Reset")
	}
	if pooled := joinOracle(ctx, epoch2, DefaultMergePolicy()); !reflect.DeepEqual(pooled, got) {
		t.Fatal("post-reset re-fold diverges from the pooled oracle")
	}
	if j.memo.Evals() != fresh.memo.Evals() || len(j.memo.m) != len(fresh.memo.m) {
		t.Fatalf("reused joiner's memo accounting differs from fresh: %d/%d vs %d/%d",
			j.memo.Evals(), len(j.memo.m), fresh.memo.Evals(), len(fresh.memo.m))
	}
}

// TestJoinerMemoShared: a joiner built on a caller-owned memo keeps the
// verdicts already in it, so a second joiner folding the same chains
// evaluates nothing new — the cross-shard snapshot's fresh-Joiner-per-
// call pattern — and still produces the same model.
func TestJoinerMemoShared(t *testing.T) {
	ctx := context.Background()
	chains := randChains(rand.New(rand.NewSource(11)))
	memo := NewEvalMemo(DefaultMergePolicy())
	fold := func() *Model {
		j := NewJoinerMemo(memo)
		for _, c := range chains {
			j.Add(ctx, c)
		}
		return j.Snapshot(ctx)
	}
	first := fold()
	evals := memo.Evals()
	if evals == 0 {
		t.Fatal("the first fold evaluated nothing")
	}
	second := fold()
	// Every verdict the first fold computed is served from the memo now;
	// a memo reset would recompute them instead.
	if memo.Evals() != evals {
		t.Fatalf("second fold: %d evals, want %d", memo.Evals(), evals)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("a shared memo changed the model")
	}
}

// TestEvalMemo pins the memo's accounting: first sight computes, repeat
// sight is served from the cache, and the ordered key distinguishes
// (a,b) from (b,a).
func TestEvalMemo(t *testing.T) {
	mo := NewEvalMemo(DefaultMergePolicy())
	a := stats.MomentsOf([]float64{1, 1.01, 0.99})
	b := stats.MomentsOf([]float64{2, 2.02})
	out := mo.Evaluate(a, b)
	if mo.Evals() != 1 || len(mo.m) != 1 {
		t.Fatalf("first evaluate: %d evals %d entries, want 1/1", mo.Evals(), len(mo.m))
	}
	if again := mo.Evaluate(a, b); again != out {
		t.Fatalf("memoized verdict differs: %+v vs %+v", again, out)
	}
	if mo.Evals() != 1 {
		t.Fatalf("repeat evaluate: %d evals, want 1", mo.Evals())
	}
	if mo.Evaluate(b, a) != DefaultMergePolicy().Evaluate(b, a) {
		t.Fatal("swapped operand order must be keyed separately")
	}
	if mo.Evals() != 2 {
		t.Fatalf("swapped order was served from cache: %d evals, want 2", mo.Evals())
	}
	if got := mo.Policy(); got != DefaultMergePolicy() {
		t.Fatalf("memo policy %+v, want the default", got)
	}
}

// TestEvalMemoLimit: at the entry bound the memo resets wholesale and
// keeps serving exact verdicts.
func TestEvalMemoLimit(t *testing.T) {
	mo := NewEvalMemo(DefaultMergePolicy())
	mo.limit = 4
	ref := stats.MomentsOf([]float64{1, 1})
	for i := 0; i < 10; i++ {
		mo.Evaluate(ref, stats.MomentsOf([]float64{float64(i + 2), float64(i + 2)}))
	}
	if len(mo.m) > 4 {
		t.Fatalf("memo holds %d entries beyond the limit 4", len(mo.m))
	}
	if mo.Evals() != 10 {
		t.Fatalf("%d evals for 10 distinct pairs, want 10", mo.Evals())
	}
	out := mo.Evaluate(ref, ref)
	if !out.Accept {
		t.Fatal("identical moments must merge after a reset")
	}
}
