package stream

import (
	"context"

	"psmkit/internal/mining"
	"psmkit/internal/psm"
	"psmkit/internal/trace"
)

// propIDsOf interns every candidate-signature run of a session and
// returns the per-run proposition ids (in run order): the run's packed
// candidate truth bits are projected onto the kept atom set and interned
// into the dictionary under its sequential single-writer contract.
// Callers must process completed sessions in trace order (the engine's
// snapshot path does, by construction) to reproduce the batch miner's
// sequential id replay. It is the cheap sequential phase of a snapshot;
// the per-instant expansion and chain build fan out afterwards.
func propIDsOf(dict *mining.Dictionary, keptIdx []int, s *sessionData) []int {
	ids := make([]int, len(s.runs))
	for i, sr := range s.runs {
		ids[i] = dict.Intern(mining.ProjectSignature(sr.sig, keptIdx))
	}
	return ids
}

// chainOfSession builds the session's simplified chain from pre-interned
// per-run proposition ids: the runs expand into the session's
// proposition trace, which psm.Generate — the batch flow's PSMGenerator
// — turns into the chain, and the chain's states carry their
// calibration sums from the session's stored HD/power series. It
// touches no shared state, so sessions fan out over the pipeline pool.
// A nil return is psm.Generate's "trace too short" error. The context's
// obs sinks (spans, provenance, counters) attach to the simplify pass —
// the chain is the same either way.
func chainOfSession(ctx context.Context, dict *mining.Dictionary, propIDs []int, traceIdx int, s *sessionData, merge psm.MergePolicy) *psm.Chain {
	ids := make([]int, 0, s.rows)
	for i, sr := range s.runs {
		for k := 0; k < sr.n; k++ {
			ids = append(ids, propIDs[i])
		}
	}
	c, err := psm.Generate(dict, &mining.PropTrace{IDs: ids}, &trace.Power{Values: s.power}, traceIdx)
	if err != nil {
		return nil
	}
	c = psm.SimplifyCtx(ctx, c, merge)
	psm.CarryCalibration(c, s.hd, s.power)
	return c
}
