package psm

import "psmkit/internal/stats"

// momentsPair is the memo key: the exact ordered pair of accumulators a
// mergeability decision was computed on. The order matters — the t
// statistic of an asymmetric test flips sign with the argument order —
// so no canonicalization is applied; the engines below always evaluate
// (earlier state, later state), which keeps the key canonical for free.
type momentsPair struct {
	a, b stats.Moments
}

// memoEntries bounds the memo of a long-running process (psmd
// folds chains forever); see EvalMemo.
const memoEntries = 1 << 20

// EvalMemo caches MergePolicy.Evaluate verdicts keyed by the canonical
// ⟨n, Σx, Σx²⟩ pairs they were computed on. Evaluate is a pure function
// of the two accumulators and the policy, so a memoized verdict is
// exact — not approximate — and one memo can be shared across Simplify,
// joins and successive streaming snapshots, as long as every user runs
// the same policy (NewEvalMemo pins it; NewJoinerMemo adopts it).
//
// Simplify's restart passes and the worklist's re-probes both
// re-examine state pairs whose moments have not changed since the last
// look; the memo turns every such repeat into a map hit, so the
// expensive Welch / one-sample evaluations run once per distinct
// evidence pair.
//
// An EvalMemo is not goroutine-safe: each merge pass (or the engine
// lock of a streaming daemon) owns it exclusively.
type EvalMemo struct {
	policy MergePolicy
	m      map[momentsPair]MergeOutcome
	limit  int
	evals  int64
}

// NewEvalMemo returns an empty memo for one merge policy, bounded at
// memoEntries verdicts.
func NewEvalMemo(policy MergePolicy) *EvalMemo {
	return &EvalMemo{
		policy: policy,
		m:      make(map[momentsPair]MergeOutcome),
		limit:  memoEntries,
	}
}

// Policy returns the merge policy the memo's verdicts were computed
// under.
func (mo *EvalMemo) Policy() MergePolicy { return mo.policy }

// Reset drops every cached verdict and zeroes the eval accounting in
// one step; the policy and entry bound survive. Joiner.Reset calls
// it at an epoch boundary so the memo's counters always describe one
// epoch and the map's memory is released with the fold it served.
func (mo *EvalMemo) Reset() {
	mo.m = make(map[momentsPair]MergeOutcome)
	mo.evals = 0
}

// Evaluate returns the memoized verdict for the ordered pair ⟨a, b⟩,
// computing and caching it on first sight.
func (mo *EvalMemo) Evaluate(a, b stats.Moments) MergeOutcome {
	k := momentsPair{a, b}
	if out, ok := mo.m[k]; ok {
		return out
	}
	out := mo.policy.Evaluate(a, b)
	mo.evals++
	if len(mo.m) >= mo.limit {
		// Hard memory bound for long-running daemons: reset wholesale
		// rather than tracking recency — the hot pairs repopulate within
		// one merge pass.
		mo.m = make(map[momentsPair]MergeOutcome)
	}
	mo.m[k] = out
	return out
}

// Evals returns the number of real MergePolicy.Evaluate computations
// (memo misses) performed through this memo.
func (mo *EvalMemo) Evals() int64 { return mo.evals }
