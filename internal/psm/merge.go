package psm

import (
	"context"
	"math"
	"sync"

	"psmkit/internal/stats"
)

// MergePolicy quantifies the mergeability of power states (Section IV-A).
type MergePolicy struct {
	// Epsilon is the relative tolerance for Case 1 (two next-states,
	// n_i = n_j = 1): mergeable when |μ_i − μ_j| ≤ Epsilon·max(|μ_i|,|μ_j|).
	Epsilon float64
	// Alpha is the significance level of the t-tests (Case 2: Welch's
	// two-sample test for two until-states; Case 3: one-sample test for an
	// until-state against a next-state). The states are mergeable when the
	// test does NOT reject equality, i.e. p-value ≥ Alpha.
	Alpha float64
	// EquivalenceMargin guards the t-tests against the large-n pathology:
	// with thousands of supporting instants the tests detect arbitrarily
	// small mean differences, so states whose means differ by at most this
	// relative margin are considered mergeable even when the test rejects.
	// (This is an engineering refinement over the paper, which leaves ε to
	// the designer; see DESIGN.md.)
	EquivalenceMargin float64
	// MaxCV is the paper's "σ is low" requirement: until-states are
	// mergeable only when each one's coefficient of variation σ/μ is at
	// most MaxCV. Zero disables the check.
	MaxCV float64
}

// DefaultMergePolicy returns the thresholds used in the reproduction.
//
// MaxCV defaults to 0 (disabled): data-dependent states — a write burst
// whose power tracks the data's Hamming activity — have inherently high σ
// yet must merge across bursts for the subsequent regression calibration
// to see all their evidence; Welch's test already refuses to merge states
// whose mean power genuinely differs. The CV guard remains available for
// the ablation benchmarks.
func DefaultMergePolicy() MergePolicy {
	return MergePolicy{
		Epsilon:           0.05,
		Alpha:             0.20,
		EquivalenceMargin: 0.05,
		MaxCV:             0,
	}
}

// Test names a MergeOutcome can carry: which check decided the verdict.
const (
	// TestEmpty / TestNonFinite are the pre-case guards: a state with no
	// observations, or a poisoned accumulator, never merges.
	TestEmpty     = "empty"
	TestNonFinite = "non-finite"
	// TestEpsilon is Case 1's designer tolerance on two single-sample
	// means; Stat is the relative difference, Threshold is Epsilon.
	TestEpsilon = "epsilon"
	// TestCVGuard is the paper's "σ is low" requirement; Stat is the
	// offending coefficient of variation, Threshold is MaxCV.
	TestCVGuard = "cv-guard"
	// TestDegenerate is the both-constant Welch fallback: the relative
	// mean difference against Epsilon, like two next-states.
	TestDegenerate = "degenerate-epsilon"
	// TestEquivalence is the large-n equivalence margin; Stat is the
	// relative mean difference, Threshold is EquivalenceMargin.
	TestEquivalence = "equivalence"
	// TestWelch / TestOneSample are the t-tests of Cases 2 and 3;
	// Threshold is Alpha, T and DF carry the t statistic and its degrees
	// of freedom. The outcome carries no p-value: a provenance log
	// derives it from (T, DF) when it is read.
	TestWelch     = "welch"
	TestOneSample = "one-sample"
)

// MergeOutcome explains one mergeability verdict: which of Section
// IV-A's cases applied (0 when a pre-case guard short-circuited), which
// named check decided, the computed statistic against its threshold,
// and the decision. The provenance audit log records one of these per
// comparison.
type MergeOutcome struct {
	Case      int
	Test      string
	Stat      float64
	Threshold float64
	// T and DF are the t statistic and its degrees of freedom when a
	// t-test ran (0 otherwise, and when the test itself errored out).
	T      float64
	DF     float64
	Accept bool
}

// evaluate implements the three cases of Section IV-A on two power-
// attribute summaries: the case, the deciding test, its statistic and
// the verdict. crit is the critical-|t| table for p.Alpha; a t-test
// decides from |t| whenever the table can tell and computes its
// p-value only when it cannot.
func (p MergePolicy) evaluate(a, b stats.Moments, crit *stats.CriticalT) MergeOutcome {
	if a.N == 0 || b.N == 0 {
		return MergeOutcome{Test: TestEmpty}
	}
	// Corrupted attributes (NaN/Inf from a poisoned power trace) must
	// never merge — and must not reach the t-tests, whose NaN comparisons
	// would silently decide either way.
	if !momentsFinite(a) || !momentsFinite(b) {
		return MergeOutcome{Test: TestNonFinite}
	}
	switch {
	case a.N == 1 && b.N == 1:
		// Case 1: two next-states; designer tolerance on the means.
		d := relDiff(a.Mean(), b.Mean())
		return MergeOutcome{Case: 1, Test: TestEpsilon, Stat: d, Threshold: p.Epsilon, Accept: d <= p.Epsilon}

	case a.N > 1 && b.N > 1:
		// Case 2: two until-states; Welch's t-test plus the low-σ guard.
		if p.MaxCV > 0 && (a.CoefficientOfVariation() > p.MaxCV || b.CoefficientOfVariation() > p.MaxCV) {
			cv := a.CoefficientOfVariation()
			if bcv := b.CoefficientOfVariation(); bcv > cv {
				cv = bcv
			}
			return MergeOutcome{Case: 2, Test: TestCVGuard, Stat: cv, Threshold: p.MaxCV}
		}
		d := relDiff(a.Mean(), b.Mean())
		if a.Variance() == 0 && b.Variance() == 0 {
			// Degenerate Welch: both samples are constant, the statistic
			// is 0/0 or ±Inf. Decide deterministically on the means with
			// the designer tolerance, like two next-states.
			return MergeOutcome{Case: 2, Test: TestDegenerate, Stat: d, Threshold: p.Epsilon, Accept: d <= p.Epsilon}
		}
		if d <= p.EquivalenceMargin {
			return MergeOutcome{Case: 2, Test: TestEquivalence, Stat: d, Threshold: p.EquivalenceMargin, Accept: true}
		}
		t, df, err := stats.WelchT(a, b)
		return p.tTest(2, TestWelch, t, df, err, crit)

	default:
		// Case 3: an until-state against a next-state (single sample).
		big, x := a, b.Mean()
		if b.N > 1 {
			big, x = b, a.Mean()
		}
		if p.MaxCV > 0 && big.CoefficientOfVariation() > p.MaxCV {
			return MergeOutcome{Case: 3, Test: TestCVGuard, Stat: big.CoefficientOfVariation(), Threshold: p.MaxCV}
		}
		if d := relDiff(big.Mean(), x); d <= p.EquivalenceMargin {
			return MergeOutcome{Case: 3, Test: TestEquivalence, Stat: d, Threshold: p.EquivalenceMargin, Accept: true}
		}
		t, df, err := stats.OneSampleT(big, x)
		return p.tTest(3, TestOneSample, t, df, err, crit)
	}
}

// tTest is the verdict of a case's t-test on its statistic t at df
// degrees of freedom: accept iff P ≥ Alpha, read from crit when it can
// tell, else from the computed P.
func (p MergePolicy) tTest(cse int, test string, t, df float64, err error, crit *stats.CriticalT) MergeOutcome {
	out := MergeOutcome{Case: cse, Test: test, Threshold: p.Alpha}
	if err != nil {
		return out
	}
	out.T, out.DF = t, df
	accept, ok := crit.Decide(t, df)
	if !ok {
		accept = stats.TwoSidedTPValue(t, df) >= p.Alpha
	}
	out.Accept = accept
	return out
}

// momentsFinite reports whether the accumulator's sums are finite (its
// derived mean and variance then are too).
func momentsFinite(m stats.Moments) bool {
	return !math.IsNaN(m.Sum) && !math.IsInf(m.Sum, 0) &&
		!math.IsNaN(m.SumSq) && !math.IsInf(m.SumSq, 0)
}

func relDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if m < 0 {
		m = -m
	}
	if bb := b; bb < 0 {
		if -bb > m {
			m = -bb
		}
	} else if bb > m {
		m = bb
	}
	if m == 0 {
		return 0
	}
	return d / m
}

// Simplify implements the simplify procedure of Section IV on one chain:
// it iteratively substitutes a maximal run of adjacent mergeable states
// ⟨s_i, …, s_{i+j}⟩ with a single state whose assertion is the cascade
// {p_i; p_{i+1}; …; p_{i+j}} and whose power attributes cover the union
// of the merged intervals. It returns a new chain; the input is not
// modified.
//
// Each pass after the first re-examines the adjacent pairs of the last
// pass's result. A pair whose right state no merge extended in the last
// pass was judged, on the same moments, when it ended the left state's
// run, and rejected; the pass replays that verdict instead of deciding
// it again.
func Simplify(c *Chain, policy MergePolicy) *Chain {
	return simplifyWith(newMerger(context.Background(), policy, phaseSimplify, c.Trace), c)
}

// simplifyWith is Simplify routed through a merger, so SimplifyCtx can
// attach the context's provenance log and counters.
func simplifyWith(mg merger, c *Chain) *Chain {
	states := make([]*State, len(c.States))
	for i, s := range c.States {
		states[i] = clonedState(s)
	}
	// rejected[i] is the last pass's verdict on (states[i], states[i+1])
	// when that pair was judged as it stands now; Test is "" otherwise.
	// Both slices compact in place: a pass writes index n ≤ i only after
	// reading index i.
	rejected := make([]MergeOutcome, len(states))
	for {
		merged := false
		n := 0 // states[:n] holds this pass's result, rejected[:n] its verdicts
		for i := 0; i < len(states); i++ {
			cur := states[i]
			grown := false
			for i+1 < len(states) {
				var out MergeOutcome
				if !grown && rejected[i].Test != "" {
					out = rejected[i]
					mg.replay(cur, states[i+1], out)
				} else {
					out = mg.judge(cur, states[i+1])
				}
				if !out.Accept {
					rejected[n] = out
					break
				}
				if !grown && n > 0 {
					// cur's run grows: the verdict that ended the run
					// before it was judged on cur's first state only.
					rejected[n-1].Test = ""
				}
				mergeAdjacent(cur, states[i+1])
				grown, merged = true, true
				i++
			}
			states[n] = cur
			n++
		}
		states = states[:n]
		if !merged {
			break
		}
	}
	for i, s := range states {
		s.ID = i
	}
	return &Chain{Dict: c.Dict, Trace: c.Trace, States: states}
}

// mergeAdjacent folds state b (the immediate successor of a in the chain)
// into a, in place: the cascade concatenates, the intervals concatenate
// (they are adjacent in the trace) and the power attributes and
// calibration sums pool exactly.
func mergeAdjacent(a, b *State) {
	// Both a and b are single-alternative at simplify time (join has not
	// run yet); the cascades concatenate.
	a.Alts[0].Seq.Phases = append(a.Alts[0].Seq.Phases, b.Alts[0].Seq.Phases...)
	a.Power.Merge(b.Power)
	mergeCalib(a, b)
	// Adjacent intervals coalesce into [start_a, stop_b].
	last := &a.Intervals[len(a.Intervals)-1]
	last.Stop = b.Intervals[0].Stop
}

// Join implements the join procedure of Section IV: starting from the
// simplified chains it pools every state into one model and iteratively
// collapses any two mergeable states — adjacent or not, from the same or
// different chains. The result can be non-deterministic: a state may
// carry several identical assertions with different successors; Alt
// counts and Transition counts record the multiplicities the HMM needs.
//
// Join folds the chains, in order, through a fresh Joiner and
// snapshots it (see JoinCtx): the batch flow and psmd run one join
// engine. The chain states are deep-copied as they are folded, so the
// input chains are never modified and callers may reuse the same chains
// across several merge policies. join_reuse_test.go pins this contract.
func Join(chains []*Chain, policy MergePolicy) *Model {
	return JoinCtx(context.Background(), chains, policy)
}

// pairItem is one candidate collapse in the worklist: the two states by
// phase-2 rank, the versions of their evidence when the verdict was
// computed, and the verdict's case (for the merge counters).
type pairItem struct {
	ra, rb int // ranks (phase-2 entry order; order-isomorphic to slice position)
	va, vb int // evidence versions at evaluation time
	cse    int // MergeOutcome.Case of the accepting verdict
}

// pairHeap is a binary min-heap of mergeable pairs ordered
// lexicographically by rank — the same "first pair in scan order" a
// restart scan selects.
type pairHeap []pairItem

func (h pairHeap) less(i, j int) bool {
	if h[i].ra != h[j].ra {
		return h[i].ra < h[j].ra
	}
	return h[i].rb < h[j].rb
}

func (h *pairHeap) push(it pairItem) {
	*h = append(*h, it)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func (h *pairHeap) pop() pairItem {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && h.less(l, s) {
			s = l
		}
		if r < n && h.less(r, s) {
			s = r
		}
		if s == i {
			break
		}
		old[i], old[s] = old[s], old[i]
		i = s
	}
	return top
}

// collapseWorklist is the join's fixpoint: pooling moved the kept
// states' means, so pairs phase 1 rejected may merge now. It performs
// exactly the collapse sequence of a restart scan (rescan all pairs
// after every collapse; the package tests keep it as the oracle)
// without the restarts, from two facts:
//
//   - the restart scan always collapses the lexicographically least
//     (by slice position) mergeable pair — every pair before it was just
//     re-checked and rejected;
//   - a verdict is a pure function of the two states' moments, so a
//     collapse of pair (a, b) can only change verdicts of pairs
//     involving a (whose evidence pooled) or b (which is gone).
//
// So: seed a min-heap with every mergeable pair of one full pass (the
// restart scan pays at least that to certify the fixpoint), and
// after each collapse re-probe only the n−1 pairs involving the merged
// state. Stale heap entries — a dead endpoint, or evidence that changed
// since the verdict — are skipped lazily via per-state versions. Ranks
// (entry positions) order the heap: removals never reorder survivors,
// so rank order and slice-position order agree at every step, and the
// popped pair is exactly the pair the restart scan would find next.
// Per collapse the work drops from O(n²) re-evaluations to O(n) probes,
// taking the fixpoint from ~O(n³) evaluations to O(n²) overall.
//
// A provenance log gets this engine's own order: the seeding pass's
// rejections, then per collapse its accept and the re-probe's
// rejections — at most n(n−1)/2 + collapses·(n−1) entries.
func collapseWorklist(mg *merger, m *Model, alias map[int]int) {
	n := len(m.States)
	if n < 2 {
		return
	}
	byRank := make([]*State, n)
	copy(byRank, m.States)
	ver := make([]int, n)
	var h pairHeap

	// probe records the decision for the counters and enqueues the pair
	// when it is currently mergeable. Argument order is (earlier rank,
	// later rank) — the restart scan's (i, j) order, which keeps the
	// t statistic's sign and the logged A/B orientation the same as in
	// phase 1.
	probe := func(ra, rb int) {
		out := mg.decide(byRank[ra], byRank[rb])
		if out.Accept {
			h.push(pairItem{ra: ra, rb: rb, va: ver[ra], vb: ver[rb], cse: out.Case})
		}
	}

	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			probe(i, j)
		}
	}
	for len(h) > 0 {
		it := h.pop()
		if byRank[it.ra] == nil || byRank[it.rb] == nil || ver[it.ra] != it.va || ver[it.rb] != it.vb {
			continue // stale: an endpoint died or its evidence changed
		}
		a, b := byRank[it.ra], byRank[it.rb]
		mg.countMerge(it.cse)
		if mg.prov != nil {
			// The pair's evidence is unchanged since its probe and a
			// verdict is pure in the moments: evaluate re-derives it.
			mg.record(a, b, mg.policy.evaluate(a.Power, b.Power, mg.crit))
		}
		mergeStates(alias, m.Initials, a, b)
		byRank[it.rb] = nil
		ver[it.ra]++
		// Re-enqueue only pairs involving the merged state; everything
		// else kept its evidence, hence its verdict.
		for rc, s := range byRank {
			if s == nil || rc == it.ra {
				continue
			}
			if rc < it.ra {
				probe(rc, it.ra)
			} else {
				probe(it.ra, rc)
			}
		}
	}
	// Compact the survivors in rank order — the order a restart scan's
	// in-place removals preserve.
	out := m.States[:0]
	for _, s := range byRank {
		if s != nil {
			out = append(out, s)
		}
	}
	m.States = out
}

// mergeStates folds state b into state a without touching the state
// slice — the collapse half phase 1, the worklist engine and the
// streaming Joiner share, so every path merges evidence identically.
// The calibration sums pool exactly, so the order in which a path
// merges never reaches a fit (see Calibrate).
func mergeStates(alias, initials map[int]int, a, b *State) {
	for _, alt := range b.Alts {
		merged := false
		for k := range a.Alts {
			if sameAssertion(a.Alts[k].Seq, alt.Seq) {
				a.Alts[k].Count += alt.Count
				merged = true
				break
			}
		}
		if !merged {
			a.Alts = append(a.Alts, Alt{
				Seq:   Sequence{Phases: append([]Phase(nil), alt.Seq.Phases...)},
				Count: alt.Count,
			})
		}
	}
	a.Power.Merge(b.Power)
	mergeCalib(a, b)
	a.Intervals = append(a.Intervals, b.Intervals...)

	alias[b.ID] = a.ID
	if n, ok := initials[b.ID]; ok {
		initials[a.ID] += n
		delete(initials, b.ID)
	}
}

// mergeCalib pools b's calibration sums into a's. A merged state carries
// sums only when both did; otherwise its sums would miss evidence.
func mergeCalib(a, b *State) {
	if a.Calib == nil || b.Calib == nil {
		a.Calib = nil
		return
	}
	a.Calib.Merge(b.Calib)
}

// findAlias chases the alias chain from id to its surviving root with
// full two-pass path compression: after the root is known, every node on
// the walked chain is pointed directly at it, so merge cascades of any
// depth amortize to near-constant lookups (classic union-find; the
// merge engines only ever union a live root into a live root, so ranks
// are unnecessary — the chain depth equals the cascade depth).
func findAlias(alias map[int]int, id int) int {
	root := id
	for {
		next, ok := alias[root]
		if !ok {
			break
		}
		root = next
	}
	for id != root {
		next := alias[id]
		alias[id] = root
		id = next
	}
	return root
}

// resolveTransitions chases alias chains on every transition endpoint and
// aggregates the duplicates that merging produced.
func resolveTransitions(m *Model, alias map[int]int) {
	for i := range m.Transitions {
		m.Transitions[i].From = findAlias(alias, m.Transitions[i].From)
		m.Transitions[i].To = findAlias(alias, m.Transitions[i].To)
	}
	dedupTransitions(m)
}

// transKey identifies a transition up to its count — the dedup identity.
type transKey struct{ from, to, enabling int }

// dedupScratch holds the aggregation map and first-occurrence order of
// one dedupTransitions pass. The snapshot hot path deduplicates on every
// join; pooling the scratch keeps those passes allocation-free.
type dedupScratch struct {
	agg   map[transKey]int
	order []transKey
}

var dedupPool = sync.Pool{
	New: func() any {
		return &dedupScratch{agg: make(map[transKey]int)}
	},
}

// dedupTransitions aggregates parallel edges (same from/to/enabling) into
// one transition with a summed count, preserving first-occurrence order.
func dedupTransitions(m *Model) {
	sc := dedupPool.Get().(*dedupScratch)
	for _, t := range m.Transitions {
		k := transKey{t.From, t.To, t.Enabling}
		if _, ok := sc.agg[k]; !ok {
			sc.order = append(sc.order, k)
		}
		sc.agg[k] += t.Count
	}
	m.Transitions = m.Transitions[:0]
	for _, k := range sc.order {
		m.Transitions = append(m.Transitions, Transition{From: k.from, To: k.to, Enabling: k.enabling, Count: sc.agg[k]})
	}
	clear(sc.agg)
	sc.order = sc.order[:0]
	dedupPool.Put(sc)
}

// reindex renumbers states to 0..n-1 and rewrites transitions and
// initials accordingly.
func reindex(m *Model) {
	remap := map[int]int{}
	for i, s := range m.States {
		remap[s.ID] = i
		s.ID = i
	}
	for i := range m.Transitions {
		m.Transitions[i].From = remap[m.Transitions[i].From]
		m.Transitions[i].To = remap[m.Transitions[i].To]
	}
	newInit := map[int]int{}
	for id, n := range m.Initials {
		newInit[remap[id]] = n
	}
	m.Initials = newInit
}
