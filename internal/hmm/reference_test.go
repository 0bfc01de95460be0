package hmm

// Reference HMM algorithms over λ = (A, B, π): belief filtering, the
// forward likelihood, Viterbi decoding and Baum-Welch re-estimation. The
// tracker (internal/powersim) runs none of them — it follows one current
// state and ranks successors with Score — so they are kept with their
// tests, which also run them on the matrices New builds from a PSM.

import (
	"fmt"
	"math"
)

// NumStates returns |Q|.
func (h *HMM) NumStates() int { return len(h.Pi) }

// NumObservations returns |E|.
func (h *HMM) NumObservations() int { return len(h.Assertions) }

// InitialBelief returns a copy of π.
func (h *HMM) InitialBelief() []float64 {
	return append([]float64(nil), h.Pi...)
}

// Filter advances a belief vector one step given the observation index
// (the filtering approach of Section V). A negative obs applies the
// transition model only. The returned belief is normalized; if all mass
// vanishes (impossible observation) the zero vector is returned.
func (h *HMM) Filter(belief []float64, obs int) []float64 {
	if len(belief) != h.NumStates() {
		panic(fmt.Sprintf("hmm: belief has %d entries, model has %d states", len(belief), h.NumStates()))
	}
	n := h.NumStates()
	out := make([]float64, n)
	for i, bi := range belief {
		if bi == 0 {
			continue
		}
		row := h.A[i]
		for j := 0; j < n; j++ {
			out[j] += bi * row[j]
		}
	}
	if obs >= 0 {
		for j := 0; j < n; j++ {
			out[j] *= h.B[j][obs]
		}
	}
	normalize(out)
	return out
}

// Predict returns the index of the most probable state in a belief
// vector, or -1 when the belief is all-zero.
func (h *HMM) Predict(belief []float64) int {
	best, bestP := -1, 0.0
	for i, p := range belief {
		if p > bestP {
			best, bestP = i, p
		}
	}
	return best
}

// Forward returns the log-likelihood of an observation sequence under the
// model (the forward algorithm with per-step normalization for numerical
// stability). It returns -Inf for an impossible sequence.
func (h *HMM) Forward(obs []int) float64 {
	if len(obs) == 0 {
		return 0
	}
	n := h.NumStates()
	alpha := make([]float64, n)
	var logL float64
	for i := 0; i < n; i++ {
		alpha[i] = h.Pi[i] * h.B[i][obs[0]]
	}
	logL += logNormalize(alpha)
	next := make([]float64, n)
	for _, o := range obs[1:] {
		for j := 0; j < n; j++ {
			var s float64
			for i := 0; i < n; i++ {
				if alpha[i] != 0 {
					s += alpha[i] * h.A[i][j]
				}
			}
			next[j] = s * h.B[j][o]
		}
		alpha, next = next, alpha
		logL += logNormalize(alpha)
	}
	return logL
}

// Viterbi returns the most likely hidden-state sequence for an
// observation sequence, or nil when the sequence is impossible under the
// model. Ties break toward the lower state index.
func (h *HMM) Viterbi(obs []int) []int {
	if len(obs) == 0 {
		return []int{}
	}
	n := h.NumStates()
	delta := make([]float64, n)
	for i := 0; i < n; i++ {
		delta[i] = h.Pi[i] * h.B[i][obs[0]]
	}
	if math.IsInf(logNormalize(delta), -1) {
		return nil
	}
	back := make([][]int, len(obs))
	next := make([]float64, n)
	for t := 1; t < len(obs); t++ {
		back[t] = make([]int, n)
		for j := 0; j < n; j++ {
			best, bestP := -1, 0.0
			for i := 0; i < n; i++ {
				if p := delta[i] * h.A[i][j]; p > bestP {
					best, bestP = i, p
				}
			}
			back[t][j] = best
			next[j] = bestP * h.B[j][obs[t]]
		}
		delta, next = next, delta
		if math.IsInf(logNormalize(delta), -1) {
			return nil
		}
	}
	last, lastP := -1, 0.0
	for i, p := range delta {
		if p > lastP {
			last, lastP = i, p
		}
	}
	if last < 0 {
		return nil
	}
	path := make([]int, len(obs))
	path[len(obs)-1] = last
	for t := len(obs) - 1; t > 0; t-- {
		path[t-1] = back[t][path[t]]
	}
	return path
}

var negInf = math.Inf(-1)

// logNormalize scales v to sum 1 and returns log of the scaling mass
// (-Inf when the vector is all-zero, leaving it untouched).
func logNormalize(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	if sum == 0 {
		return negInf
	}
	for i := range v {
		v[i] /= sum
	}
	return math.Log(sum)
}

// BaumWelch re-estimates the model's A and B matrices from unlabeled
// observation sequences (the EM/forward–backward algorithm), leaving π
// untouched. It is the natural refinement step once a generated PSM set
// has been deployed: field traces re-weight the transition and
// observation statistics the join bookkeeping seeded. Iteration stops
// after maxIter rounds or when the total log-likelihood improves by less
// than tol. It returns the final log-likelihood.
//
// Zero-probability structure is preserved: entries of A and B that are 0
// stay 0 (EM cannot create mass where the PSM topology has none), so the
// re-estimated model never invents transitions the mined PSMs lack.
func (h *HMM) BaumWelch(sequences [][]int, maxIter int, tol float64) float64 {
	n := h.NumStates()
	k := h.NumObservations()
	prevLL := math.Inf(-1)
	for iter := 0; iter < maxIter; iter++ {
		numA := zeros(n, n)
		numB := zeros(n, k)
		denA := make([]float64, n)
		denB := make([]float64, n)
		var ll float64

		for _, obs := range sequences {
			if len(obs) == 0 {
				continue
			}
			T := len(obs)
			// Scaled forward pass.
			alpha := zeros(T, n)
			scale := make([]float64, T)
			for i := 0; i < n; i++ {
				alpha[0][i] = h.Pi[i] * h.B[i][obs[0]]
			}
			scale[0] = logNormalize(alpha[0])
			for t := 1; t < T; t++ {
				for j := 0; j < n; j++ {
					var s float64
					for i := 0; i < n; i++ {
						s += alpha[t-1][i] * h.A[i][j]
					}
					alpha[t][j] = s * h.B[j][obs[t]]
				}
				scale[t] = logNormalize(alpha[t])
			}
			impossible := false
			for _, s := range scale {
				if math.IsInf(s, -1) {
					impossible = true
					break
				}
				ll += s
			}
			if impossible {
				continue // sequence outside the model's support
			}
			// Scaled backward pass (same per-step normalization).
			beta := zeros(T, n)
			for i := 0; i < n; i++ {
				beta[T-1][i] = 1
			}
			for t := T - 2; t >= 0; t-- {
				for i := 0; i < n; i++ {
					var s float64
					for j := 0; j < n; j++ {
						s += h.A[i][j] * h.B[j][obs[t+1]] * beta[t+1][j]
					}
					beta[t][i] = s
				}
				logNormalize(beta[t])
			}
			// Accumulate expected counts.
			for t := 0; t < T; t++ {
				var gsum float64
				g := make([]float64, n)
				for i := 0; i < n; i++ {
					g[i] = alpha[t][i] * beta[t][i]
					gsum += g[i]
				}
				if gsum == 0 {
					continue
				}
				for i := 0; i < n; i++ {
					gi := g[i] / gsum
					numB[i][obs[t]] += gi
					denB[i] += gi
					if t < T-1 {
						denA[i] += gi
					}
				}
				if t < T-1 {
					var xsum float64
					xi := zeros(n, n)
					for i := 0; i < n; i++ {
						for j := 0; j < n; j++ {
							xi[i][j] = alpha[t][i] * h.A[i][j] * h.B[j][obs[t+1]] * beta[t+1][j]
							xsum += xi[i][j]
						}
					}
					if xsum > 0 {
						for i := 0; i < n; i++ {
							for j := 0; j < n; j++ {
								numA[i][j] += xi[i][j] / xsum
							}
						}
					}
				}
			}
		}

		// M-step. denA was accumulated per state; the ξ counts are already
		// normalized per step, so re-normalize rows directly.
		for i := 0; i < n; i++ {
			var rowSum float64
			for j := 0; j < n; j++ {
				rowSum += numA[i][j]
			}
			if rowSum > 0 {
				for j := 0; j < n; j++ {
					if h.A[i][j] > 0 {
						h.A[i][j] = numA[i][j] / rowSum
					}
				}
				normalize(h.A[i])
			}
			if denB[i] > 0 {
				for o := 0; o < k; o++ {
					if h.B[i][o] > 0 {
						h.B[i][o] = numB[i][o] / denB[i]
					}
				}
				normalize(h.B[i])
			}
		}

		if ll-prevLL < tol && iter > 0 {
			return ll
		}
		prevLL = ll
	}
	return prevLL
}
