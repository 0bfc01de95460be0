package stream

import (
	"context"

	"psmkit/internal/mining"
	"psmkit/internal/psm"
	"psmkit/internal/stats"
)

// Run is one closed XU segment: proposition Prop held over the instants
// [Start, Stop] of its trace and a different proposition followed, so the
// segment is a recognized `p U q` (length ≥ 2) or `p X q` (length 1)
// temporal pattern with streaming power attributes ⟨μ, σ, n⟩.
type Run struct {
	Prop        int
	Start, Stop int
	Kind        psm.PatternKind
	Power       stats.Moments
}

// Segmenter is the push-based mirror of the PSMGenerator's XU automaton
// (psm.Generate's two-element FIFO, Fig. 5 of the paper): feed it one
// (proposition, power) observation per instant and it emits a Run each
// time a maximal run of equal propositions closes — i.e. as soon as the
// first instant of the successor run arrives. The run still open when the
// trace ends has no successor and is dropped, exactly like the batch
// scanner drops the trace's final run.
//
// Power attributes accumulate one observation at a time into the shared
// stats.Moments representation, so a run's ⟨μ, σ, n⟩ is bit-identical to
// the batch generator's AddAll over the same power slice.
type Segmenter struct {
	emit func(Run)
	cur  Run
	open bool
	pos  int
}

// NewSegmenter returns a segmenter delivering closed runs to emit.
func NewSegmenter(emit func(Run)) *Segmenter {
	return &Segmenter{emit: emit}
}

// Push consumes one instant.
func (s *Segmenter) Push(prop int, power float64) {
	t := s.pos
	s.pos++
	if s.open && prop == s.cur.Prop {
		s.cur.Stop = t
		s.cur.Kind = psm.Until
		s.cur.Power.Add(power)
		return
	}
	if s.open {
		s.emit(s.cur)
	}
	s.cur = Run{Prop: prop, Start: t, Stop: t, Kind: psm.Next}
	s.cur.Power.Add(power)
	s.open = true
}

// Instants returns the number of observations pushed.
func (s *Segmenter) Instants() int { return s.pos }

// Pending returns the currently open run (power attributes as of the last
// push) and whether one exists. The live metrics use it; Finish drops it.
func (s *Segmenter) Pending() (Run, bool) { return s.cur, s.open }

// Finish ends the trace: the open run has no successor and is discarded.
// The segmenter is ready for a new trace afterwards.
func (s *Segmenter) Finish() {
	s.open = false
	s.cur = Run{}
	s.pos = 0
}

// ChainOfRuns assembles the chain PSM of one trace from its closed runs,
// exactly as psm.Generate builds it from the batch scanner's assertions:
// one state per run, single-alternative, tagged with the trace index.
// It returns nil when no run closed (the trace was too short to expose a
// temporal pattern — the batch generator errors there too).
func ChainOfRuns(dict *mining.Dictionary, traceIdx int, runs []Run) *psm.Chain {
	if len(runs) == 0 {
		return nil
	}
	c := &psm.Chain{Dict: dict, Trace: traceIdx}
	for _, r := range runs {
		c.States = append(c.States, &psm.State{
			ID: len(c.States),
			Alts: []psm.Alt{{
				Seq:   psm.Sequence{Phases: []psm.Phase{{Prop: r.Prop, Kind: r.Kind}}},
				Count: 1,
			}},
			Power:     r.Power,
			Intervals: []psm.Interval{{Trace: traceIdx, Start: r.Start, Stop: r.Stop}},
		})
	}
	return c
}

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
// per-run proposition ids, its states carrying their calibration sums
// from the session's stored HD/power series. It touches no shared
// state, so sessions fan out over the pipeline pool. A nil return
// mirrors psm.Generate's "trace too short" error. The context's obs
// sinks (spans, provenance, counters) attach to the simplify pass — the
// chain is the same either way.
func chainOfSession(ctx context.Context, dict *mining.Dictionary, propIDs []int, traceIdx int, s *sessionData, merge psm.MergePolicy) *psm.Chain {
	var runs []Run
	seg := NewSegmenter(func(r Run) { runs = append(runs, r) })
	t := 0
	for i, sr := range s.runs {
		for k := 0; k < sr.n; k++ {
			seg.Push(propIDs[i], s.power[t])
			t++
		}
	}
	seg.Finish()
	c := ChainOfRuns(dict, traceIdx, runs)
	if c == nil {
		return nil
	}
	c = psm.SimplifyCtx(ctx, c, merge)
	psm.CarryCalibration(c, s.hd, s.power)
	return c
}
