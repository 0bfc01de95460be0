// Package psm is the paper's primary contribution: automatic generation of
// Power State Machines from mined temporal assertions.
//
// The pipeline mirrors Sections III and IV of the paper:
//
//	Generate  — the PSMGenerator procedure (Fig. 4): drive the two-state
//	            XU automaton (Fig. 5) over a proposition trace, emitting a
//	            chain of power states — one per recognized `p until q` or
//	            `p next q` temporal assertion — annotated with the power
//	            attributes ⟨μ, σ, n⟩ measured on the reference power trace.
//	Simplify  — merge adjacent, power-mergeable states of one chain.
//	Join      — merge mergeable states across chains, producing the final
//	            (possibly non-deterministic) PSM set as a single Model.
//	Calibrate — replace the constant μ of data-dependent states (high σ)
//	            with a linear function of the primary-input Hamming
//	            distance, when the correlation is strong.
//
// A Model is simulated concurrently with the IP by package powersim,
// backed by the HMM of package hmm for non-deterministic choices and
// resynchronization.
package psm

import (
	"fmt"
	"strings"

	"psmkit/internal/mining"
	"psmkit/internal/stats"
)

// PatternKind distinguishes the two temporal patterns of Section III-B.
type PatternKind int

const (
	// Until is the pattern s_i U s_j: the IP stays in a stable condition
	// for at least two instants before s_j appears.
	Until PatternKind = iota
	// Next is the pattern s_i X s_j: a single-instant condition followed
	// immediately by s_j.
	Next
)

func (k PatternKind) String() string {
	if k == Until {
		return "U"
	}
	return "X"
}

// Phase is one step of a state's characterizing assertion: proposition
// Prop holding with the given temporal pattern.
type Phase struct {
	Prop int
	Kind PatternKind
}

// Sequence is a cascade of phases {p_i; p_{i+1}; …} (the result of
// simplify merges, Section IV): each phase must be satisfied after the
// previous one ends.
type Sequence struct {
	Phases []Phase
}

// Key returns a canonical identity for the sequence, used to detect
// duplicate assertions when join collapses states (they feed the HMM's B
// matrix).
func (s Sequence) Key() string {
	var sb strings.Builder
	for i, p := range s.Phases {
		if i > 0 {
			sb.WriteByte(';')
		}
		fmt.Fprintf(&sb, "%d%s", p.Prop, p.Kind)
	}
	return sb.String()
}

// String renders the sequence with the dictionary's proposition names.
func (s Sequence) String(d *mining.Dictionary) string {
	var parts []string
	for _, p := range s.Phases {
		parts = append(parts, fmt.Sprintf("(%s)%s", d.PropString(p.Prop), p.Kind))
	}
	return strings.Join(parts, " ; ")
}

// Alt is one alternative assertion of a state together with its join
// multiplicity (how many merged states contributed this exact sequence).
type Alt struct {
	Seq   Sequence
	Count int
}

// Interval locates a state's supporting evidence in a training trace.
type Interval struct {
	Trace int // index of the training trace
	Start int // first instant where the assertion holds
	Stop  int // last instant (inclusive)
}

// State is a power state: one or more alternative temporal assertions
// ({p_i || p_j || …} after join, each possibly a cascade {…;…} after
// simplify), the power attributes, and an optional Hamming-distance
// regression for data-dependent states.
type State struct {
	ID    int
	Alts  []Alt
	Power stats.Moments // exact ⟨n, Σδ, Σδ²⟩ ⇒ ⟨μ, σ, n⟩ on demand
	// Calib carries the exact calibration sums ⟨n, Σx, Σx², Σy, Σxy, Σy²⟩
	// (x the primary-input Hamming distance, y the power) over the
	// supporting instants, when the state was built with its trace's
	// series (CarryCalibration); every merge pools it beside Power. It is
	// nil otherwise — also after merging with a state that carries none —
	// and Calibrate then walks the intervals.
	Calib *stats.Regression
	// Intervals lists the supporting evidence; start/stop arrays of the
	// paper's join are recovered from here.
	Intervals []Interval
	// Fit, when non-nil, replaces the constant μ with
	// power = Intercept + Slope·HD(inputs_t, inputs_t-1).
	Fit *stats.LinearFit
}

// Mean returns the state's constant power output ω(s) = μ.
func (s *State) Mean() float64 { return s.Power.Mean() }

// Estimate returns the state's power estimate given the current primary-
// input Hamming distance — the regression if the state was calibrated,
// the constant mean otherwise.
func (s *State) Estimate(inputHD float64) float64 {
	if s.Fit != nil {
		return s.Fit.Predict(inputHD)
	}
	return s.Power.Mean()
}

// FirstProps returns the set of propositions that can open the state (the
// first phase of each alternative). A state is enterable at an instant
// only if one of these holds.
func (s *State) FirstProps() []int {
	seen := map[int]bool{}
	var out []int
	for _, a := range s.Alts {
		p := a.Seq.Phases[0].Prop
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// HasAlt reports whether the state carries an alternative with the given
// sequence key.
func (s *State) HasAlt(key string) bool {
	for _, a := range s.Alts {
		if a.Seq.Key() == key {
			return true
		}
	}
	return false
}

// Transition is a PSM edge: leaving From for To when the Enabling
// proposition becomes true. Count is the number of source-chain edges the
// transition aggregates (the HMM's A matrix is built from it).
type Transition struct {
	From     int
	To       int
	Enabling int
	Count    int
}

// Chain is the output of the PSMGenerator for one training trace: a PSM
// in the form of a chain of states where each state has a unique
// successor and predecessor (Section III-C). The transition from state i
// to state i+1 is enabled by the first proposition of state i+1.
type Chain struct {
	Dict   *mining.Dictionary
	Trace  int // index of the originating training trace
	States []*State
}

// Model is the combined, optimized PSM set (the paper's P^opt) flattened
// into one state graph: states, aggregated transitions, and the initial
// states of the source chains with their multiplicities.
type Model struct {
	Dict        *mining.Dictionary
	States      []*State
	Transitions []Transition
	// Initials maps state id → number of training chains that began
	// there; it seeds the HMM's π vector.
	Initials map[int]int
}

// NumStates returns the number of power states.
func (m *Model) NumStates() int { return len(m.States) }

// NumTransitions returns the number of distinct transitions (aggregated
// edges count once).
func (m *Model) NumTransitions() int { return len(m.Transitions) }

// OutgoingEnabled returns the transitions leaving state id whose enabling
// proposition is prop.
func (m *Model) OutgoingEnabled(id, prop int) []Transition {
	var out []Transition
	for _, t := range m.Transitions {
		if t.From == id && t.Enabling == prop {
			out = append(out, t)
		}
	}
	return out
}

// clonedState deep-copies a state (sharing nothing mutable).
func clonedState(s *State) *State {
	ns := &State{
		ID:        s.ID,
		Alts:      make([]Alt, len(s.Alts)),
		Power:     s.Power,
		Calib:     cloneCalib(s.Calib),
		Intervals: append([]Interval(nil), s.Intervals...),
	}
	for i, a := range s.Alts {
		ns.Alts[i] = Alt{Seq: Sequence{Phases: append([]Phase(nil), a.Seq.Phases...)}, Count: a.Count}
	}
	if s.Fit != nil {
		f := *s.Fit
		ns.Fit = &f
	}
	return ns
}

// cloneCalib copies a state's calibration sums (nil stays nil).
func cloneCalib(r *stats.Regression) *stats.Regression {
	if r == nil {
		return nil
	}
	c := *r
	return &c
}
