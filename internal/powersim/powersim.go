// Package powersim simulates a combined PSM model concurrently with an
// IP's functional activity (Sections III-C and V of the paper).
//
// At every simulation instant the PI/PO valuation of the IP is mapped to
// the proposition that holds (via the mined dictionary); the tracker
// follows the current power state's temporal assertion — staying through
// until phases, stepping through next phases and cascades — and traverses
// an outgoing transition when its enabling proposition fires. The power
// estimate of the instant is the current state's output function: its
// constant μ, or the Hamming-distance regression for calibrated
// data-dependent states.
//
// Non-deterministic choices (several enterable states or identical
// assertions after join) are resolved by the HMM's filtering scores, and
// the resynchronization procedure of Section V recovers from unknown
// behaviours: the wrong transition is masked in a run-local copy of the A
// matrix, and while the tracker is unsynchronized the estimate holds the
// last valid state's output (the paper notes the estimation is not
// reliable during this period — the WSP metric quantifies it).
package powersim

import (
	"psmkit/internal/hmm"
	"psmkit/internal/logic"
	"psmkit/internal/mining"
	"psmkit/internal/psm"
	"psmkit/internal/stats"
	"psmkit/internal/trace"
)

// Config tunes the tracker.
type Config struct {
	// Resync enables the HMM resynchronization jump after an unknown
	// behaviour. With it disabled the tracker merely holds the last valid
	// state until a known entry proposition reappears (used by the
	// ablation benchmarks).
	Resync bool
}

// DefaultConfig enables resynchronization.
func DefaultConfig() Config { return Config{Resync: true} }

// Result summarizes one co-simulation run.
type Result struct {
	// Estimates holds the per-instant power estimates (watts).
	Estimates []float64
	// MRE is the mean relative error against the reference power trace
	// (only set by Run).
	MRE float64
	// Predictions counts state-entry decisions; WrongPredictions counts
	// the decisions later invalidated by an unknown behaviour (resync
	// events). WSP = WrongPredictions/Predictions.
	Predictions      int
	WrongPredictions int
	// UnsyncedInstants counts instants spent without a confirmed state.
	UnsyncedInstants int
	// Instants is the total number of simulated instants.
	Instants int
}

// WSP returns the wrong-state-prediction ratio of the run.
func (r *Result) WSP() float64 {
	if r.Predictions == 0 {
		if r.UnsyncedInstants > 0 {
			return 1
		}
		return 0
	}
	return float64(r.WrongPredictions) / float64(r.Predictions)
}

// cursor tracks progress through one alternative's phase cascade.
type cursor struct {
	alt      int
	phase    int
	consumed int // instants consumed in the current phase
}

// Simulator is the streaming tracker. Create it with New, feed one PI/PO
// valuation per clock cycle to Step, and read the running metrics from
// Result.
type Simulator struct {
	model     *psm.Model
	dict      *mining.Dictionary
	mask      *hmm.HMM // the tracker's own HMM: resync masks its transitions
	inputCols []int
	cfg       Config

	// Resolved once by New, so state entries neither format assertion
	// keys nor allocate: altObs[j][a] is the HMM observation index of
	// state j's alternative a; opens[j] lists the propositions that can
	// open state j (State.FirstProps); openers[p] lists, in state order,
	// the states that proposition p can open.
	altObs  [][]int
	opens   [][]int
	openers [][]int

	prevRow  []logic.Vector
	prevProp int
	hasPrev  bool
	hd       float64

	cur       int // current state id, -1 when unsynchronized
	entryFrom int // state we entered cur from, -1 if initial/jump
	lastValid int
	cursors   []cursor
	// suspended marks an unknown behaviour interrupting the current
	// state: the tracker holds the state (and its cascade progress) until
	// a known proposition reappears — Section V's "remaining in the last
	// valid state till a known behaviour is finally recognized".
	suspended bool

	fallback float64 // model-wide mean power, for the never-synced case

	res Result
}

// New builds a tracker for a model. inputCols are the functional-trace
// columns of the IP's primary inputs (used by calibrated states).
func New(model *psm.Model, inputCols []int, cfg Config) *Simulator {
	h := hmm.New(model)
	var total stats.Moments
	altObs := make([][]int, len(model.States))
	opens := make([][]int, len(model.States))
	var openers [][]int
	for j, st := range model.States {
		total.Merge(st.Power)
		altObs[j] = make([]int, len(st.Alts))
		for a, alt := range st.Alts {
			altObs[j][a] = h.Observation(alt.Seq.Key())
		}
		opens[j] = st.FirstProps()
		for _, p := range opens[j] {
			for len(openers) <= p {
				openers = append(openers, nil)
			}
			openers[p] = append(openers[p], st.ID)
		}
	}
	return &Simulator{
		model:     model,
		dict:      model.Dict,
		mask:      h,
		inputCols: inputCols,
		cfg:       cfg,
		altObs:    altObs,
		opens:     opens,
		openers:   openers,
		cur:       -1,
		entryFrom: -1,
		lastValid: -1,
		fallback:  total.Mean(),
	}
}

// Result returns the metrics accumulated so far.
func (s *Simulator) Result() *Result { return &s.res }

// CurrentState returns the tracked state id, or -1 when unsynchronized.
func (s *Simulator) CurrentState() int { return s.cur }

// Step consumes one instant's PI/PO valuation and returns the power
// estimate for that instant.
//
// The row's vectors must stay valid until the next Step call and are
// not retained past it (the previous row is the tracker's input-HD
// history, refreshed every step): arena-backed callers may alternate
// two arenas, recycling the one whose row is two steps old, exactly
// like Session.AppendBatch's contract.
func (s *Simulator) Step(row []logic.Vector) float64 {
	s.res.Instants++
	if s.dict == nil || len(s.model.States) == 0 {
		// A model without a dictionary or states cannot classify any
		// behaviour: every instant is unsynchronized and the estimate
		// degrades to the model-wide mean (0 for an empty model) instead
		// of crashing the co-simulation.
		s.res.UnsyncedInstants++
		return s.fallback
	}
	var prop int
	if s.hasPrev && rowsEqual(s.prevRow, row) {
		// Fast path: the PI/PO valuation did not change (long stable
		// phases, cipher busy cycles) — same proposition, zero input HD.
		// The history must still be refreshed: callers only guarantee a
		// row's vectors outlive one Step, so holding on to an older
		// equal row would let prevRow alias storage the caller has
		// since recycled.
		s.prevRow = append(s.prevRow[:0], row...)
		prop = s.prevProp
		s.hd = 0
	} else {
		prop = s.dict.EvalRow(row)
		s.hd = 0
		if s.hasPrev {
			acc := 0
			for _, c := range s.inputCols {
				acc += row[c].HammingDistance(s.prevRow[c])
			}
			s.hd = float64(acc)
		}
		s.prevRow = append(s.prevRow[:0], row...)
		s.prevProp = prop
		s.hasPrev = true
	}
	hd := s.hd

	if prop == mining.Unknown {
		// A valuation outside the mined vocabulary: unknown behaviour.
		// If it interrupts a tracked state, the state's assertion was not
		// satisfied when expected — by the paper's definition, a wrong
		// state prediction — and the tracker suspends in place, keeping
		// the cascade progress, until a known behaviour reappears.
		if s.cur >= 0 && !s.suspended {
			s.res.WrongPredictions++
			s.suspended = true
		}
		s.res.UnsyncedInstants++
		if s.cur >= 0 {
			return s.estimate(s.cur, hd)
		}
		return s.estimate(s.lastValid, hd)
	}

	if s.cur < 0 {
		// Unsynchronized. With resynchronization on (or before the first
		// sync) any state that opens with this proposition is a candidate
		// jump target; in basic mode (Section III-C semantics) the tracker
		// only resumes when the last valid state's expected enabling
		// proposition finally fires.
		if s.cfg.Resync || s.lastValid < 0 {
			if j := s.bestEntry(-1, prop); j >= 0 {
				s.enter(j, -1, prop)
				return s.estimate(s.cur, hd)
			}
		} else if ts := s.model.OutgoingEnabled(s.lastValid, prop); len(ts) > 0 {
			best, bestScore := -1, -1.0
			for _, t := range ts {
				if sc := s.entryScore(s.lastValid, t.To, prop); sc > bestScore {
					best, bestScore = t.To, sc
				}
			}
			s.enter(best, s.lastValid, prop)
			return s.estimate(s.cur, hd)
		}
		s.res.UnsyncedInstants++
		return s.estimate(s.lastValid, hd)
	}

	// Synchronized (possibly suspended): let the state's assertion
	// consume the instant. A suspended state that accepts the instant has
	// recognized the behaviour again and resumes where it was.
	wasSuspended := s.suspended
	s.suspended = false
	if s.advanceCursors(prop) {
		return s.estimate(s.cur, hd)
	}

	// The assertion ended: traverse an outgoing transition whose
	// enabling proposition fires now.
	if ts := s.model.OutgoingEnabled(s.cur, prop); len(ts) > 0 {
		best, bestScore := -1, -1.0
		for _, t := range ts {
			if sc := s.entryScore(s.cur, t.To, prop); sc > bestScore {
				best, bestScore = t.To, sc
			}
		}
		s.enter(best, s.cur, prop)
		return s.estimate(s.cur, hd)
	}
	// Cascade restart: a joined state's recorded cascades are finite, but
	// the behaviour region they summarize can alternate indefinitely; when
	// the cascade ends on a proposition that re-opens the same state, the
	// state implicitly self-loops.
	if s.opensWith(s.cur, prop) {
		s.enter(s.cur, s.cur, prop)
		return s.estimate(s.cur, hd)
	}

	// Unknown behaviour: the prediction that brought us here was wrong
	// (unless it already failed when the suspension began).
	if !wasSuspended {
		s.res.WrongPredictions++
	}
	if s.entryFrom >= 0 {
		// Mask the transition so the resynchronization follows a
		// different path next time (Section V).
		s.mask.ZeroTransition(s.entryFrom, s.cur)
	}
	s.lastValid = s.cur
	s.cur = -1
	if s.cfg.Resync {
		if j := s.bestEntry(s.lastValid, prop); j >= 0 {
			s.enter(j, -1, prop)
			return s.estimate(s.cur, hd)
		}
	}
	s.res.UnsyncedInstants++
	return s.estimate(s.lastValid, hd)
}

// enter moves the tracker into state j, opening with proposition prop.
// from is the state traversed from (-1 for initial entries and resync
// jumps).
func (s *Simulator) enter(j, from, prop int) {
	s.res.Predictions++
	s.cur = j
	s.entryFrom = from
	s.lastValid = j
	s.suspended = false
	s.cursors = s.cursors[:0]
	for ai, a := range s.model.States[j].Alts {
		if a.Seq.Phases[0].Prop == prop {
			s.cursors = append(s.cursors, cursor{alt: ai, phase: 0, consumed: 1})
		}
	}
}

// advanceCursors lets every live alternative try to consume the instant;
// alternatives that cannot are dropped. It reports whether the state
// retained at least one live alternative.
func (s *Simulator) advanceCursors(prop int) bool {
	alts := s.model.States[s.cur].Alts
	live := s.cursors[:0]
	for _, c := range s.cursors {
		phases := alts[c.alt].Seq.Phases
		ph := phases[c.phase]
		switch {
		case ph.Kind == psm.Until && ph.Prop == prop:
			// Stay in the until phase.
			c.consumed++
			live = append(live, c)
		default:
			// The phase ended (until proposition fell, or the single next
			// instant elapsed): the cascade's following phase must open
			// with the current proposition.
			if c.phase+1 < len(phases) && phases[c.phase+1].Prop == prop {
				c.phase++
				c.consumed = 1
				live = append(live, c)
			}
			// Otherwise the alternative is complete; exit is decided at
			// the state level.
		}
	}
	s.cursors = live
	return len(s.cursors) > 0
}

// opensWith reports whether state id has an alternative opening with prop.
func (s *Simulator) opensWith(id, prop int) bool {
	for _, p := range s.opens[id] {
		if p == prop {
			return true
		}
	}
	return false
}

// bestEntry returns the best state that opens with prop according to the
// (masked) HMM scores, or -1. from < 0 scores against π.
func (s *Simulator) bestEntry(from, prop int) int {
	if prop >= len(s.openers) {
		return -1
	}
	best, bestScore := -1, 0.0
	for _, id := range s.openers[prop] {
		sc := s.entryScore(from, id, prop)
		// Prefer any opening state over none, even with zero score (a
		// masked or unseeded path is still better than losing sync).
		if best < 0 || sc > bestScore {
			best, bestScore = id, sc
		}
	}
	return best
}

// entryScore ranks entering state j from state i (or from π when i < 0)
// observing an assertion of j that opens with prop.
func (s *Simulator) entryScore(i, j, prop int) float64 {
	bestObs := -1.0
	for ai, a := range s.model.States[j].Alts {
		if a.Seq.Phases[0].Prop != prop {
			continue
		}
		if sc := s.mask.Score(i, j, s.altObs[j][ai]); sc > bestObs {
			bestObs = sc
		}
	}
	if bestObs < 0 {
		return 0
	}
	return bestObs
}

// estimate evaluates a state's output function; a negative id falls back
// to the model-wide mean (never synchronized yet).
func (s *Simulator) estimate(id int, hd float64) float64 {
	if id < 0 {
		return s.fallback
	}
	return s.model.States[id].Estimate(hd)
}

// rowsEqual reports whether two valuations of the same schema coincide.
func rowsEqual(a, b []logic.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// Run replays a functional trace through a fresh tracker, recording the
// per-instant estimates, and — when a reference power trace is supplied —
// the mean relative error against it.
func Run(model *psm.Model, ft *trace.Functional, inputCols []int, ref *trace.Power, cfg Config) *Result {
	sim := New(model, inputCols, cfg)
	est := make([]float64, 0, ft.Len())
	for t := 0; t < ft.Len(); t++ {
		est = append(est, sim.Step(ft.Row(t)))
	}
	res := sim.res
	res.Estimates = est
	if ref != nil {
		n := ft.Len()
		if ref.Len() < n {
			n = ref.Len()
		}
		res.MRE = stats.MeanRelativeError(est[:n], ref.Values[:n])
	}
	return &res
}
