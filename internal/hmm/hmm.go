// Package hmm implements the Hidden Markov Model of Section V of the
// paper: the statistical layer that lets a set of (possibly
// non-deterministic) PSMs be simulated efficiently.
//
// Contextualized to the PSM problem, the model λ = (A, B, π) is built
// from a psm.Model as the paper specifies:
//
//   - Q, the hidden states, are the power states of all generated PSMs;
//   - E, the observable events, are the temporal assertions that
//     characterize the states;
//   - A[i][j] is proportional to the number of transitions from state i
//     to state j;
//   - B[j][k] is proportional to the number of times assertion k has been
//     included (by join operations) in the assertion set of state j;
//   - π[i] is proportional to the number of training traces whose chain
//     begins in state i.
//
// The tracker (internal/powersim) follows one current state: on a state
// exit it ranks each candidate successor j of the current state i by
//
//	Score(i, j, obs) = A[i][j] · B[j][obs]
//
// (π[j] replaces A[i][j] for the initial choice), and the
// resynchronization procedure masks A entries that led to wrong
// predictions (ZeroTransition on a run-local copy).
package hmm

import "psmkit/internal/psm"

// HMM is the model λ = (A, B, π) plus the assertion vocabulary.
type HMM struct {
	// A is the row-stochastic state-transition matrix (states × states).
	A [][]float64
	// B is the row-stochastic observation matrix (states × assertions).
	B [][]float64
	// Pi is the initial-state distribution.
	Pi []float64
	// Assertions maps an assertion key (psm.Sequence.Key) to its
	// observation index in B's columns.
	Assertions map[string]int
}

// New builds the HMM from a combined PSM model.
func New(m *psm.Model) *HMM {
	n := m.NumStates()
	h := &HMM{
		A:          zeros(n, 0),
		Pi:         make([]float64, n),
		Assertions: map[string]int{},
	}
	// Observation vocabulary: every distinct assertion of every state.
	for _, s := range m.States {
		for _, a := range s.Alts {
			key := a.Seq.Key()
			if _, ok := h.Assertions[key]; !ok {
				h.Assertions[key] = len(h.Assertions)
			}
		}
	}
	k := len(h.Assertions)
	h.B = zeros(n, k)
	for i := range h.A {
		h.A[i] = make([]float64, n)
	}

	for _, t := range m.Transitions {
		h.A[t.From][t.To] += float64(t.Count)
	}
	for _, s := range m.States {
		for _, a := range s.Alts {
			h.B[s.ID][h.Assertions[a.Seq.Key()]] += float64(a.Count)
		}
	}
	for id, c := range m.Initials {
		h.Pi[id] = float64(c)
	}

	normalizeRows(h.A)
	normalizeRows(h.B)
	normalize(h.Pi)
	return h
}

// Observation returns the observation index of an assertion key, or -1.
func (h *HMM) Observation(key string) int {
	if i, ok := h.Assertions[key]; ok {
		return i
	}
	return -1
}

// ZeroTransition implements the resynchronization masking of Section V:
// after a wrong prediction the probability of reaching the wrong state
// again is fixed to 0 (the row is re-normalized; a row that loses all
// mass stays zero, signalling "every successor was wrong").
func (h *HMM) ZeroTransition(from, to int) {
	h.A[from][to] = 0
	normalize(h.A[from])
}

// Score ranks a candidate successor j of state i under observation obs:
// A[i][j]·B[j][obs]. With i < 0 the prior π[j] replaces the transition
// term (initial choice); with obs < 0 the observation term is dropped.
func (h *HMM) Score(i, j, obs int) float64 {
	var t float64
	if i < 0 {
		t = h.Pi[j]
	} else {
		t = h.A[i][j]
	}
	if obs >= 0 {
		t *= h.B[j][obs]
	}
	return t
}

func zeros(n, k int) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, k)
	}
	return m
}

func normalize(v []float64) {
	var sum float64
	for _, x := range v {
		sum += x
	}
	if sum == 0 {
		return
	}
	for i := range v {
		v[i] /= sum
	}
}

func normalizeRows(m [][]float64) {
	for i := range m {
		normalize(m[i])
	}
}
