package psm

import (
	"context"

	"psmkit/internal/mining"
	"psmkit/internal/obs"
	"psmkit/internal/stats"
	"psmkit/internal/trace"
)

// Phase labels of the provenance log: where a mergeability comparison
// ran.
const (
	phaseSimplify = "simplify"
	phaseJoin     = "join"
)

// merger bundles a MergePolicy with the observation sinks of one merge
// pass: the provenance log the decisions are recorded into and the
// per-case merge counters. Every verdict comes from MergePolicy.evaluate
// under the policy's critical-|t| table, whether or not a log is
// attached; the log only records it, so observing a run cannot change
// its model.
type merger struct {
	policy MergePolicy
	phase  string
	trace  int
	crit   *stats.CriticalT // the policy's table, resolved once per pass
	prov   *obs.ProvenanceLog
	checks *obs.Counter    // one tick per mergeability probe
	evals  *obs.Counter    // ticks with checks (see newMerger)
	cases  [4]*obs.Counter // indexed by MergeOutcome.Case, 1..3; ticks per collapse
}

// newMerger returns a merger with the context's provenance log and
// registry attached, if any. psm_merge_evals_total ticks once per
// check, like psm_merge_checks_total: it counted the evaluations a
// verdict memo did not serve, and no verdict is memoized any more. It
// stays until the benchmark's per-layer metric that reads it goes.
func newMerger(ctx context.Context, policy MergePolicy, phase string, traceIdx int) merger {
	mg := merger{policy: policy, phase: phase, trace: traceIdx,
		crit: stats.CriticalTable(policy.Alpha), prov: obs.ProvenanceFrom(ctx)}
	if reg := obs.RegistryFrom(ctx); reg != nil {
		mg.checks = reg.Counter("psm_merge_checks_total")
		mg.evals = reg.Counter("psm_merge_evals_total")
		mg.cases[1] = reg.Counter("psm_merges_case1_total")
		mg.cases[2] = reg.Counter("psm_merges_case2_total")
		mg.cases[3] = reg.Counter("psm_merges_case3_total")
	}
	return mg
}

// decide is the worklist engine's probe: a counted verdict with no
// per-case accounting. The worklist enqueues accepting pairs
// speculatively; only a pair it collapses counts as a merge and is
// logged as an accept (see collapseWorklist). A rejection is final for
// the pair's current evidence, so it is logged here, when it is made.
func (mg *merger) decide(a, b *State) MergeOutcome {
	out := mg.policy.evaluate(a.Power, b.Power, mg.crit)
	mg.checks.Inc()
	mg.evals.Inc()
	if !out.Accept && mg.prov != nil {
		mg.record(a, b, out)
	}
	return out
}

// judge decides whether two states' power attributes merge, counting
// the check and recording it when a sink is attached. In simplify and
// join phase 1 every accepted probe collapses immediately, so per-case
// counters tick here on accept.
func (mg *merger) judge(a, b *State) MergeOutcome {
	out := mg.policy.evaluate(a.Power, b.Power, mg.crit)
	mg.replay(a, b, out)
	if out.Accept {
		mg.countMerge(out.Case)
	}
	return out
}

// replay counts and records a check whose verdict out is already known:
// the pair's moments are those it was judged on.
func (mg *merger) replay(a, b *State, out MergeOutcome) {
	mg.checks.Inc()
	mg.evals.Inc()
	if mg.prov != nil {
		mg.record(a, b, out)
	}
}

// countMerge ticks the per-case merge counter for one actual collapse.
func (mg *merger) countMerge(cse int) {
	if cse >= 1 && cse <= 3 {
		mg.cases[cse].Inc()
	}
}

// record appends one decision to the attached provenance log: what the
// verdict computed, nothing more. The log derives a t-test's p-value
// and each state's ⟨μ, σ⟩ when it is read.
func (mg *merger) record(a, b *State, out MergeOutcome) {
	mg.prov.Record(obs.MergeDecision{
		Phase:     mg.phase,
		Trace:     mg.trace,
		A:         momentsRecord(a.ID, a.Power),
		B:         momentsRecord(b.ID, b.Power),
		Case:      out.Case,
		Test:      out.Test,
		Stat:      out.Stat,
		Threshold: out.Threshold,
		T:         out.T,
		DF:        out.DF,
		Accept:    out.Accept,
	})
}

func momentsRecord(id int, m stats.Moments) obs.MomentsRecord {
	return obs.MomentsRecord{State: id, N: m.N, Sum: m.Sum, SumSq: m.SumSq}
}

// GenerateCtx is Generate under a "generate" span.
func GenerateCtx(ctx context.Context, dict *mining.Dictionary, pt *mining.PropTrace, pw *trace.Power, traceIdx int) (*Chain, error) {
	_, span := obs.Start(ctx, "generate", obs.KV("trace", traceIdx))
	c, err := Generate(dict, pt, pw, traceIdx)
	if c != nil {
		span.SetAttr("states", len(c.States))
	}
	span.End()
	return c, err
}

// SimplifyCtx is Simplify under a "simplify" span, with the context's
// provenance log and merge counters attached. The produced chain is
// identical to Simplify's for any context; a replayed verdict (see
// Simplify) is counted and logged like a fresh one.
func SimplifyCtx(ctx context.Context, c *Chain, policy MergePolicy) *Chain {
	_, span := obs.Start(ctx, "simplify", obs.KV("trace", c.Trace), obs.KV("states_in", len(c.States)))
	out := simplifyWith(newMerger(ctx, policy, phaseSimplify, c.Trace), c)
	span.SetAttr("states_out", len(out.States))
	span.End()
	return out
}

// JoinCtx is Join under a "join" span, with the context's provenance
// log and merge counters attached: it folds the chains, in order,
// through a fresh Joiner and snapshots it, so the join's fixpoint runs
// in a "collapse" span nested under "join". The produced model is
// identical to Join's for any context.
func JoinCtx(ctx context.Context, chains []*Chain, policy MergePolicy) *Model {
	if len(chains) == 0 {
		return &Model{Initials: map[int]int{}}
	}
	ctx, span := obs.Start(ctx, "join", obs.KV("chains", len(chains)))
	defer span.End()
	j := NewJoiner(policy)
	for _, c := range chains {
		j.Add(ctx, c)
	}
	return j.Snapshot(ctx)
}

// CalibrateCtx is Calibrate under a "calibrate" span; the number of
// fitted states feeds the psm_calibration_fits_total counter and the
// per-instant samples walked (states without carried sums) feed
// psm_calibrate_samples_total.
func CalibrateCtx(ctx context.Context, m *Model, fts []*trace.Functional, pws []*trace.Power, inputCols []int, policy CalibrationPolicy) int {
	_, span := obs.Start(ctx, "calibrate", obs.KV("states", len(m.States)))
	n, walked := calibrate(m, fts, pws, inputCols, policy)
	span.SetAttr("fits", n)
	span.SetAttr("samples", walked)
	span.End()
	reg := obs.RegistryFrom(ctx)
	reg.Counter("psm_calibration_fits_total").Add(int64(n))
	reg.Counter("psm_calibrate_samples_total").Add(int64(walked))
	return n
}
