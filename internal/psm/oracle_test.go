package psm

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"psmkit/internal/obs"
	"psmkit/internal/stats"
)

// The pooled join engine is the join as it ran before the Joiner became
// the only production engine: every chain deep-copied into one model
// (Pool), the greedy phase 1 over that slice (joinPhase1), then the
// fixpoint — the worklist, or the restart scan of join_scaling_test.go.
// It stays here as the Joiner's oracle. Its phase 1 and transition
// bookkeeping share no code with the Joiner's incremental fold, and the
// restart scan shares none with the worklist.

// Pool flattens simplified chains into one unmerged model: every chain
// state is deep-copied and renumbered with a model-global id (chain k's
// states follow chain k-1's contiguously), the implicit chain
// transitions are materialized, and each chain's first state is
// recorded as an initial.
func Pool(chains []*Chain) *Model {
	nStates, nTrans := 0, 0
	for _, c := range chains {
		nStates += len(c.States)
		if len(c.States) > 1 {
			nTrans += len(c.States) - 1
		}
	}
	m := &Model{
		States:      make([]*State, 0, nStates),
		Transitions: make([]Transition, 0, nTrans),
		Initials:    make(map[int]int, len(chains)),
	}
	if len(chains) > 0 {
		m.Dict = chains[0].Dict
	}
	for _, c := range chains {
		base := len(m.States)
		for _, s := range c.States {
			ns := clonedState(s)
			ns.ID = base + s.ID
			m.States = append(m.States, ns)
		}
		for _, t := range ChainTransitions(c) {
			m.Transitions = append(m.Transitions, Transition{
				From: base + t.From, To: base + t.To, Enabling: t.Enabling, Count: t.Count,
			})
		}
		m.Initials[base]++
	}
	return m
}

// CloneModel deep-copies a model: states (sharing nothing mutable),
// transitions and initials. The dictionary is shared.
func CloneModel(m *Model) *Model {
	out := &Model{
		Dict:        m.Dict,
		States:      make([]*State, len(m.States)),
		Transitions: append([]Transition(nil), m.Transitions...),
		Initials:    make(map[int]int, len(m.Initials)),
	}
	for i, s := range m.States {
		out.States[i] = clonedState(s)
	}
	for id, n := range m.Initials {
		out.Initials[id] = n
	}
	return out
}

// joinPhase1 is the greedy clustering pass over a pooled model: walk
// the states in order and fold each into the first already-kept state
// it is mergeable with.
func joinPhase1(mg *merger, m *Model, alias map[int]int) {
	kept := 0
	for i := 0; i < len(m.States); {
		merged := false
		for j := 0; j < kept; j++ {
			if mg.mergeable(m.States[j], m.States[i]) {
				collapse(m, alias, j, i)
				merged = true
				break
			}
		}
		if !merged {
			// Keep: position i is already in the kept prefix, because
			// collapse removes merged entries.
			kept++
			i = kept
		}
	}
}

// collapse merges state index bi into state index ai and removes bi
// from the slice; transitions are rewired later in one pass.
func collapse(m *Model, alias map[int]int, ai, bi int) {
	mergeStates(alias, m.Initials, m.States[ai], m.States[bi])
	m.States = append(m.States[:bi], m.States[bi+1:]...)
}

// joinPooled runs phase 1 and the worklist fixpoint on a pooled model,
// mutating and returning it, with the context's provenance log and
// merge counters attached. Verdicts go through memo; nil runs every
// check unmemoized, as JoinCtx does.
func joinPooled(ctx context.Context, m *Model, policy MergePolicy, memo *EvalMemo) *Model {
	mg := newMerger(ctx, policy, phaseJoin, -1, memo)
	alias := map[int]int{}
	joinPhase1(&mg, m, alias)
	collapseWorklist(&mg, m, alias)
	resolveTransitions(m, alias)
	reindex(m)
	return m
}

// joinOracle is the parent's Join: Pool, then joinPooled, unmemoized
// like JoinCtx.
func joinOracle(ctx context.Context, chains []*Chain, policy MergePolicy) *Model {
	if len(chains) == 0 {
		return &Model{Initials: map[int]int{}}
	}
	return joinPooled(ctx, Pool(chains), policy, nil)
}

// joinOracleMemo is joinOracle with one verdict memo shared by phase 1
// and the fixpoint — the configuration of psmd's persistent Joiner.
func joinOracleMemo(ctx context.Context, chains []*Chain, policy MergePolicy) *Model {
	if len(chains) == 0 {
		return &Model{Initials: map[int]int{}}
	}
	return joinPooled(ctx, Pool(chains), policy, NewEvalMemo(policy))
}

// foldJoin folds the chains, in order, through one memoized NewJoiner
// and snapshots it — psmd's join configuration.
func foldJoin(ctx context.Context, chains []*Chain, policy MergePolicy) *Model {
	if len(chains) == 0 {
		return &Model{Initials: map[int]int{}}
	}
	j := NewJoiner(policy)
	for _, c := range chains {
		j.Add(ctx, c)
	}
	return j.Snapshot(ctx)
}

// joinRun is one observed join: the model, its canonical provenance
// log rendered one decision per line, and its non-zero psm_merge_*
// counters.
type joinRun struct {
	model    *Model
	log      []byte
	counters map[string]int64
}

// observedJoin runs join under a fresh provenance log and registry.
func observedJoin(t testing.TB, join func(context.Context) *Model) joinRun {
	t.Helper()
	log := obs.NewProvenanceLog()
	reg := obs.NewRegistry()
	ctx := obs.WithRegistry(obs.WithProvenance(context.Background(), log), reg)
	r := joinRun{model: join(ctx), counters: map[string]int64{}}
	// fmt's shortest round-trip float form renders every decision
	// exactly, including the ±Inf t statistics a zero-variance sample
	// yields, which the NDJSON wire form cannot carry.
	var buf bytes.Buffer
	for _, d := range log.Decisions() {
		fmt.Fprintf(&buf, "%+v\n", d)
	}
	r.log = buf.Bytes()
	for name, v := range reg.Snapshot().Counters {
		if strings.HasPrefix(name, "psm_merge") && v != 0 {
			r.counters[name] = v
		}
	}
	return r
}

// CheckJoinMatchesOracle requires production JoinCtx to equal the
// pooled oracle on chains under policy: a deep-equal model, a
// byte-equal provenance log and equal psm_merge_* counters against
// Pool + phase 1 + worklist, both unmemoized; the same three against
// the memoized oracle for a memoized NewJoiner fold (psmd's
// configuration); and a deep-equal model against Pool + phase 1 + the
// unmemoized restart scan. It never modifies the chains.
func CheckJoinMatchesOracle(t testing.TB, chains []*Chain, policy MergePolicy) {
	t.Helper()
	got := observedJoin(t, func(ctx context.Context) *Model { return JoinCtx(ctx, chains, policy) })
	want := observedJoin(t, func(ctx context.Context) *Model { return joinOracle(ctx, chains, policy) })
	checkSameJoin(t, "JoinCtx", got, want)
	gotMemo := observedJoin(t, func(ctx context.Context) *Model { return foldJoin(ctx, chains, policy) })
	wantMemo := observedJoin(t, func(ctx context.Context) *Model { return joinOracleMemo(ctx, chains, policy) })
	checkSameJoin(t, "memoized Joiner", gotMemo, wantMemo)
	if len(chains) == 0 {
		return
	}
	if scan := joinPooledScan(context.Background(), Pool(chains), policy); !reflect.DeepEqual(scan, got.model) {
		t.Fatalf("JoinCtx model diverges from the restart-scan oracle: %d states, want %d",
			len(got.model.States), len(scan.States))
	}
}

// checkSameJoin requires a join run to equal its oracle's: the model,
// the provenance log and the psm_merge_* counters.
func checkSameJoin(t testing.TB, name string, got, want joinRun) {
	t.Helper()
	if !reflect.DeepEqual(want.model, got.model) {
		t.Fatalf("%s model diverges from the pooled oracle: %d states %d transitions, want %d states %d transitions",
			name, len(got.model.States), len(got.model.Transitions), len(want.model.States), len(want.model.Transitions))
	}
	if !bytes.Equal(want.log, got.log) {
		t.Fatalf("%s provenance log diverges from the pooled oracle (%d vs %d bytes)", name, len(got.log), len(want.log))
	}
	if !reflect.DeepEqual(want.counters, got.counters) {
		t.Fatalf("%s merge counters %v, pooled oracle %v", name, got.counters, want.counters)
	}
}

// tightPolicies exercise the CV guard and a hair-trigger epsilon, where
// accept/reject flips are most order-sensitive.
var tightPolicies = []MergePolicy{
	{Epsilon: 0.2, Alpha: 0.05, EquivalenceMargin: 0.15, MaxCV: 0.1},
	{Epsilon: 0.01, Alpha: 0.5, EquivalenceMargin: 0.005, MaxCV: 0},
}

// randMergeChains builds chains whose power summaries cluster around a
// few levels, so the join's phases make many real merge decisions
// across all three policy cases (n=1 next-states, small and heavy
// until-states).
func randMergeChains(rng *rand.Rand) []*Chain {
	levels := []float64{1.0, 1.03, 1.3, 2.0, 2.08, 3.5}
	chains := make([]*Chain, 1+rng.Intn(6))
	for ci := range chains {
		c := &Chain{Trace: ci}
		for i, n := 0, 1+rng.Intn(15); i < n; i++ {
			mu := levels[rng.Intn(len(levels))]
			var vals []float64
			switch rng.Intn(3) {
			case 0: // next-state: single sample
				vals = []float64{mu + 0.01*rng.NormFloat64()}
			case 1: // small until-state
				for k := 0; k < 2+rng.Intn(4); k++ {
					vals = append(vals, mu+0.02*rng.NormFloat64())
				}
			default: // heavy until-state
				for k := 0; k < 30+rng.Intn(40); k++ {
					vals = append(vals, mu+0.02*rng.NormFloat64())
				}
			}
			c.States = append(c.States, &State{
				ID: i,
				Alts: []Alt{{
					Seq:   Sequence{Phases: []Phase{{Prop: rng.Intn(6), Kind: PatternKind(rng.Intn(2))}}},
					Count: 1 + rng.Intn(2),
				}},
				Power:     stats.MomentsOf(vals),
				Intervals: []Interval{{Trace: ci, Start: i * 100, Stop: i*100 + len(vals) - 1}},
			})
		}
		chains[ci] = c
	}
	return chains
}

// TestWorklistMatchesReference is the engine-equivalence property: for
// seeded random mergeable-heavy chain sets, production JoinCtx must
// equal the pooled oracle with the worklist (model, provenance log,
// counters) and with the historical restart scan (model) — same states
// in the same order with bit-identical pooled moments, same
// transitions, same initials.
func TestWorklistMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		CheckJoinMatchesOracle(t, randMergeChains(rng), DefaultMergePolicy())
	}
}

// TestWorklistMatchesReferenceTightPolicies re-runs the differential
// property under the tight policies.
func TestWorklistMatchesReferenceTightPolicies(t *testing.T) {
	for _, pol := range tightPolicies {
		for seed := int64(100); seed < 120; seed++ {
			rng := rand.New(rand.NewSource(seed))
			CheckJoinMatchesOracle(t, randMergeChains(rng), pol)
		}
	}
}

// TestJoinPooledIdempotent: joining an already-joined model must be the
// identity — the fixpoint certified no pair merges, so a pooled pass
// over JoinCtx's output has nothing to do (and must not perturb order,
// counts or moments).
func TestJoinPooledIdempotent(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		once := JoinCtx(ctx, randMergeChains(rng), DefaultMergePolicy())
		twice := joinPooled(ctx, CloneModel(once), DefaultMergePolicy(), nil)
		if !reflect.DeepEqual(once, twice) {
			t.Fatalf("seed %d: a pooled pass over a joined model is not the identity", seed)
		}
	}
}

// FuzzJoinMatchesOracle turns arbitrary bytes into a few chains with
// clustered power levels and requires production JoinCtx to equal the
// pooled oracle (CheckJoinMatchesOracle). The first byte picks the
// merge policy; every following triple is one state:
//
//   - a: power level (a%6), pattern kind, and a new chain when a ≥ 240;
//   - b: the sample shape — one sample, a small or heavy noisy run, or
//     a constant pair (the degenerate Welch case);
//   - c: the noise pattern and the proposition id.
//
// The seed corpus under testdata/fuzz/FuzzJoinMatchesOracle is written
// by `go run ./scripts/fuzzcorpus`.
func FuzzJoinMatchesOracle(f *testing.F) {
	f.Add([]byte{0, 0, 1, 7, 1, 1, 9, 6, 2, 3, 240, 0, 7, 3, 5, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		policies := append([]MergePolicy{DefaultMergePolicy()}, tightPolicies...)
		CheckJoinMatchesOracle(t, fuzzChains(data[1:]), policies[int(data[0])%len(policies)])
	})
}

// fuzzChains decodes FuzzJoinMatchesOracle's input: at most 64 states
// over at most 6 chains.
func fuzzChains(data []byte) []*Chain {
	levels := []float64{1.0, 1.03, 1.3, 2.0, 2.08, 3.5}
	var chains []*Chain
	cur := &Chain{}
	for k := 0; k+2 < len(data) && k < 3*64; k += 3 {
		a, b, c := data[k], data[k+1], data[k+2]
		if a >= 240 && len(cur.States) > 0 && len(chains) < 5 {
			chains = append(chains, cur)
			cur = &Chain{Trace: len(chains)}
		}
		mu := levels[a%6]
		noise := func(i int) float64 { return 0.02 * (float64((int(c)*(i+1)*37)%255) - 127) / 127 }
		var vals []float64
		switch b % 4 {
		case 0:
			vals = []float64{mu + noise(0)/2}
		case 1:
			for i := 0; i < 2+int(b>>2)%4; i++ {
				vals = append(vals, mu+noise(i))
			}
		case 2:
			for i := 0; i < 10+int(b>>2)%30; i++ {
				vals = append(vals, mu+noise(i))
			}
		default:
			vals = []float64{mu, mu}
		}
		id := len(cur.States)
		cur.States = append(cur.States, &State{
			ID: id,
			Alts: []Alt{{
				Seq:   Sequence{Phases: []Phase{{Prop: int(c) % 5, Kind: PatternKind((a / 6) % 2)}}},
				Count: 1,
			}},
			Power:     stats.MomentsOf(vals),
			Intervals: []Interval{{Trace: cur.Trace, Start: id * 100, Stop: id*100 + len(vals) - 1}},
		})
	}
	if len(cur.States) > 0 {
		chains = append(chains, cur)
	}
	return chains
}
