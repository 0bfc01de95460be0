package psm

import (
	"context"

	"psmkit/internal/mining"
	"psmkit/internal/obs"
)

// Joiner is the join engine: every production join — the batch flow
// (Join, JoinCtx), psmd's incremental snapshots, the cross-shard
// snapshot and both provenance replays — folds chains through one.
//
// The join has two phases: a greedy clustering pass over the pooled
// states, folding each into the first already-kept state it merges
// with, and a fixpoint over the survivors (collapseWorklist). The
// clustering pass is a left fold — kept states are never re-examined by
// it — so its result over chains ⟨c₀ … cₖ⟩ extends to ⟨c₀ … cₖ₊₁⟩ by
// folding only cₖ₊₁'s states. A Joiner persists exactly that fold: the
// kept states with their pooled evidence, the phase-1-resolved
// aggregated transitions, and the surviving initials. Add folds one new
// chain in O(|chain| · kept) checks; Snapshot clones the kept
// states cheaply and runs only the order-dependent fixpoint on the
// clone. Neither operation revisits previously pooled states, so the
// steady-state snapshot cost is a function of the number of distinct
// power behaviours (kept states), not of the total evidence pooled.
// The produced model, the provenance log and the merge counters equal
// the pooled engine's — every chain pooled into one model, then phase 1
// and the fixpoint over it — which the package tests keep as the
// Joiner's oracle (TestJoinerMatchesJoin, FuzzJoinMatchesOracle).
//
// The context's provenance log, if any, records every decision of Add
// and Snapshot in the order the fold makes them: phase 1 per chain,
// then the fixpoint's rejections and collapses (see merger.decide).
//
// Every check decides afresh: a Joiner holds no verdicts, so its memory
// is the fold's and nothing else. Without a provenance log a t-test
// decides from the policy's critical-|t| table (see MergePolicy).
//
// A Joiner is not goroutine-safe; the streaming engine owns one under
// its lock.
type Joiner struct {
	policy MergePolicy
	dict   *mining.Dictionary
	// kept holds the phase-1 survivors in adoption order (the fixpoint's
	// scan order). State IDs are pooled-global and stable until a
	// snapshot reindexes its clone.
	kept []*State
	// trans aggregates the chains' transitions with phase-1 aliases
	// resolved, in first-occurrence order; transIdx locates each key's
	// slot. Snapshot applies the fixpoint's aliases on its copy, and the
	// two-stage resolution composes to the pooled join's single pass.
	trans    []Transition
	transIdx map[transKey]int
	initials map[int]int
	pooled   int // total states ever folded (the pooled pre-join count)
}

// NewJoiner returns an empty incremental join for one merge policy.
func NewJoiner(policy MergePolicy) *Joiner {
	return &Joiner{
		policy:   policy,
		transIdx: make(map[transKey]int),
		initials: make(map[int]int),
	}
}

// Reset discards the accumulated fold (epoch change: every proposition
// id and chain is void). A Joiner that has been Reset is
// indistinguishable from a fresh NewJoiner of the same policy — pinned
// by TestJoinerResetReuseAcrossEpochs.
func (j *Joiner) Reset() {
	j.dict = nil
	j.kept = nil
	j.trans = nil
	j.transIdx = make(map[transKey]int)
	j.initials = make(map[int]int)
	j.pooled = 0
}

// Pooled returns the total number of states folded in so far — the
// join's pre-collapse pooled state count.
func (j *Joiner) Pooled() int { return j.pooled }

// Add folds one simplified chain into the incremental join — the exact
// decisions phase 1 makes for this chain's states after all previously
// added ones. The chain's states are deep-copied; the input is not
// modified. The context's merge counters tick and its provenance log
// records here.
func (j *Joiner) Add(ctx context.Context, c *Chain) {
	mg := newMerger(ctx, j.policy, phaseJoin, -1)

	if j.dict == nil {
		j.dict = c.Dict
	}
	base := j.pooled
	// The chain's first state is an initial; recording it before the
	// fold lets mergeStates transfer the count if the head merges away
	// (exactly the pooled join's order).
	j.initials[base]++

	// Phase-1 fold with a chain-local alias map: only this chain's
	// states can be aliased here (kept states are never folded into each
	// other before the fixpoint), so the map dies with the chain.
	alias := make(map[int]int)
	for _, s := range c.States {
		ns := clonedState(s)
		ns.ID = base + s.ID
		j.pooled++
		merged := false
		for _, k := range j.kept {
			if mg.judge(k, ns).Accept {
				mergeStates(alias, j.initials, k, ns)
				merged = true
				break
			}
		}
		if !merged {
			j.kept = append(j.kept, ns)
		}
	}

	// Aggregate the chain's transitions with its phase-1 aliases
	// resolved. First-occurrence order over chains in fold order equals
	// the pooled dedup's first-occurrence order, and the fixpoint aliases
	// applied at snapshot time compose with these (two-stage union-find
	// resolution ≡ the pooled join's single resolve pass).
	for _, t := range ChainTransitions(c) {
		k := transKey{
			from:     findAlias(alias, base+t.From),
			to:       findAlias(alias, base+t.To),
			enabling: t.Enabling,
		}
		if i, ok := j.transIdx[k]; ok {
			j.trans[i].Count += t.Count
		} else {
			j.transIdx[k] = len(j.trans)
			j.trans = append(j.trans, Transition{From: k.from, To: k.to, Enabling: k.enabling, Count: t.Count})
		}
	}
}

// sharedClone copies the mutable spine of a kept state while sharing
// the immutable bulk with the joiner's copy, so snapshot cost does not
// grow with accumulated evidence:
//
//   - Alts: the slice is copied (the fixpoint mutates Alt.Count and
//     appends), but each Alt's Phases backing is shared — collapse only
//     ever copies phases into fresh slices, never writes them;
//   - Intervals: shared backing, capacity clamped to length, so a
//     fixpoint append copies-on-write instead of scribbling into the
//     joiner's array;
//   - Calib: copied (the fixpoint merges sums into the clone).
func sharedClone(s *State) *State {
	ns := &State{
		ID:        s.ID,
		Alts:      append([]Alt(nil), s.Alts...),
		Power:     s.Power,
		Calib:     cloneCalib(s.Calib),
		Intervals: s.Intervals[:len(s.Intervals):len(s.Intervals)],
	}
	if s.Fit != nil {
		f := *s.Fit
		ns.Fit = &f
	}
	return ns
}

// Snapshot materializes the joined model over everything added so far,
// under a "collapse" span. The kept states are cheaply cloned
// (sharedClone) and only the order-dependent fixpoint runs on the clone
// — the joiner itself is not modified and keeps accepting Add calls.
// The fixpoint starts from an empty alias map: phase-1 aliases were
// already resolved into the aggregated transitions, so only this
// snapshot's collapses need chasing.
func (j *Joiner) Snapshot(ctx context.Context) *Model {
	_, span := obs.Start(ctx, "collapse", obs.KV("states_in", len(j.kept)))
	mg := newMerger(ctx, j.policy, phaseJoin, -1)

	m := &Model{
		Dict:        j.dict,
		States:      make([]*State, len(j.kept)),
		Transitions: append(make([]Transition, 0, len(j.trans)), j.trans...),
		Initials:    make(map[int]int, len(j.initials)),
	}
	for i, s := range j.kept {
		m.States[i] = sharedClone(s)
	}
	for id, n := range j.initials {
		m.Initials[id] = n
	}

	alias := map[int]int{}
	collapseWorklist(&mg, m, alias)
	resolveTransitions(m, alias)
	reindex(m)
	span.SetAttr("states_out", len(m.States))
	span.End()
	return m
}
