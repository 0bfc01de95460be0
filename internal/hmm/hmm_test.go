package hmm

import (
	"math"
	"testing"

	"psmkit/internal/psm"
	"psmkit/internal/stats"
)

// model3 builds a small hand-crafted model:
//
//	s0 (idle, assertion "0U")  --p1-->  s1 (work, "1U")  --p0--> s0
//	s1 --p2--> s2 (flush, "2X"), s2 --p0--> s0
//
// s0 is initial twice (two chains), s1 carries its assertion twice (a
// join merged two equal states).
func model3() *psm.Model {
	seq := func(p int, k psm.PatternKind) psm.Sequence {
		return psm.Sequence{Phases: []psm.Phase{{Prop: p, Kind: k}}}
	}
	mom := func(v float64, n int) stats.Moments {
		var m stats.Moments
		for i := 0; i < n; i++ {
			m.Add(v)
		}
		return m
	}
	return &psm.Model{
		States: []*psm.State{
			{ID: 0, Alts: []psm.Alt{{Seq: seq(0, psm.Until), Count: 2}}, Power: mom(1, 10)},
			{ID: 1, Alts: []psm.Alt{{Seq: seq(1, psm.Until), Count: 2}}, Power: mom(5, 10)},
			{ID: 2, Alts: []psm.Alt{{Seq: seq(2, psm.Next), Count: 1}}, Power: mom(2, 1)},
		},
		Transitions: []psm.Transition{
			{From: 0, To: 1, Enabling: 1, Count: 3},
			{From: 1, To: 0, Enabling: 0, Count: 2},
			{From: 1, To: 2, Enabling: 2, Count: 1},
			{From: 2, To: 0, Enabling: 0, Count: 1},
		},
		Initials: map[int]int{0: 2},
	}
}

func TestNewBuildsStochasticMatrices(t *testing.T) {
	h := New(model3())
	if h.NumStates() != 3 {
		t.Fatalf("states = %d", h.NumStates())
	}
	if h.NumObservations() != 3 {
		t.Fatalf("observations = %d", h.NumObservations())
	}
	// Rows of A with outgoing edges sum to 1.
	for i, row := range h.A {
		var sum float64
		for _, v := range row {
			sum += v
		}
		if sum != 0 && math.Abs(sum-1) > 1e-12 {
			t.Errorf("A row %d sums to %g", i, sum)
		}
	}
	// A[1] splits 2:1 between s0 and s2.
	if math.Abs(h.A[1][0]-2.0/3.0) > 1e-12 || math.Abs(h.A[1][2]-1.0/3.0) > 1e-12 {
		t.Errorf("A[1] = %v", h.A[1])
	}
	// π is concentrated on s0.
	if h.Pi[0] != 1 || h.Pi[1] != 0 {
		t.Errorf("Pi = %v", h.Pi)
	}
	// B rows are one-hot here (one assertion per state).
	for j := range h.B {
		var sum float64
		for _, v := range h.B[j] {
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("B row %d sums to %g", j, sum)
		}
	}
}

func TestFilterAndPredict(t *testing.T) {
	h := New(model3())
	b := h.InitialBelief()
	if h.Predict(b) != 0 {
		t.Errorf("initial prediction = %d", h.Predict(b))
	}
	// Observe the work assertion: mass must move to s1.
	obs := h.Observation("1U")
	if obs < 0 {
		t.Fatal("assertion 1U not in vocabulary")
	}
	b = h.Filter(b, obs)
	if h.Predict(b) != 1 {
		t.Errorf("after observing work: prediction = %d, belief %v", h.Predict(b), b)
	}
	if math.Abs(b[1]-1) > 1e-12 {
		t.Errorf("belief not concentrated: %v", b)
	}
}

func TestFilterImpossibleObservation(t *testing.T) {
	h := New(model3())
	b := h.InitialBelief()
	// From π = s0, observing s2's assertion is impossible (no edge 0→2).
	b = h.Filter(b, h.Observation("2X"))
	for _, v := range b {
		if v != 0 {
			t.Errorf("belief should be all-zero, got %v", b)
		}
	}
	if h.Predict(b) != -1 {
		t.Error("Predict on zero belief should be -1")
	}
}

func TestFilterTransitionOnly(t *testing.T) {
	h := New(model3())
	b := []float64{0, 1, 0}
	b = h.Filter(b, -1)
	if math.Abs(b[0]-2.0/3.0) > 1e-12 || math.Abs(b[2]-1.0/3.0) > 1e-12 {
		t.Errorf("transition-only filter = %v", b)
	}
}

func TestFilterPanicsOnBadBelief(t *testing.T) {
	h := New(model3())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	h.Filter([]float64{1}, 0)
}

func TestZeroTransitionMasksAndRenormalizes(t *testing.T) {
	h := New(model3()).Clone()
	h.ZeroTransition(1, 0)
	if h.A[1][0] != 0 {
		t.Error("transition not zeroed")
	}
	if math.Abs(h.A[1][2]-1) > 1e-12 {
		t.Errorf("row not renormalized: %v", h.A[1])
	}
	// Zeroing the only remaining edge leaves the row all-zero.
	h.ZeroTransition(1, 2)
	for _, v := range h.A[1] {
		if v != 0 {
			t.Errorf("row should be zero: %v", h.A[1])
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	h := New(model3())
	c := h.Clone()
	c.ZeroTransition(0, 1)
	if h.A[0][1] == 0 {
		t.Error("Clone shares A with the original")
	}
}

func TestScore(t *testing.T) {
	h := New(model3())
	obs := h.Observation("1U")
	if got := h.Score(0, 1, obs); math.Abs(got-1) > 1e-12 {
		t.Errorf("Score(0→1 | work) = %g, want 1", got)
	}
	if got := h.Score(-1, 0, h.Observation("0U")); math.Abs(got-1) > 1e-12 {
		t.Errorf("initial Score(s0) = %g", got)
	}
	if got := h.Score(0, 2, -1); got != 0 {
		t.Errorf("Score(0→2) = %g, want 0", got)
	}
}

func TestObservationUnknownKey(t *testing.T) {
	h := New(model3())
	if h.Observation("99U") != -1 {
		t.Error("unknown assertion should map to -1")
	}
}

// wikiHMM is the classic "healthy/fever — normal/cold/dizzy" example whose
// Viterbi path is worked out in many references.
func wikiHMM() *HMM {
	return &HMM{
		Pi: []float64{0.6, 0.4}, // healthy, fever
		A: [][]float64{
			{0.7, 0.3},
			{0.4, 0.6},
		},
		B: [][]float64{
			{0.5, 0.4, 0.1}, // healthy: normal, cold, dizzy
			{0.1, 0.3, 0.6}, // fever
		},
		Assertions: map[string]int{"normal": 0, "cold": 1, "dizzy": 2},
	}
}

func TestViterbiKnownExample(t *testing.T) {
	h := wikiHMM()
	// Observations normal, cold, dizzy → healthy, healthy, fever.
	got := h.Viterbi([]int{0, 1, 2})
	want := []int{0, 0, 1}
	if len(got) != len(want) {
		t.Fatalf("path = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("path[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestViterbiEdgeCases(t *testing.T) {
	h := wikiHMM()
	if got := h.Viterbi(nil); got == nil || len(got) != 0 {
		t.Error("empty observation sequence should give an empty path")
	}
	if got := h.Viterbi([]int{2}); len(got) != 1 || got[0] != 1 {
		t.Errorf("single dizzy observation = %v, want [1] (fever)", got)
	}
}

func TestViterbiImpossibleSequence(t *testing.T) {
	h := New(model3())
	// s2's assertion cannot be the first observation (π concentrated on s0
	// and B[0] excludes it).
	if got := h.Viterbi([]int{h.Observation("2X")}); got != nil {
		t.Errorf("impossible sequence decoded to %v", got)
	}
}

func TestViterbiOnPSMModel(t *testing.T) {
	h := New(model3())
	obs := []int{h.Observation("0U"), h.Observation("1U"), h.Observation("2X"), h.Observation("0U")}
	got := h.Viterbi(obs)
	want := []int{0, 1, 2, 0}
	if len(got) != len(want) {
		t.Fatalf("path = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("path[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestForwardLikelihood(t *testing.T) {
	h := wikiHMM()
	// P(normal) = 0.6*0.5 + 0.4*0.1 = 0.34
	if got := h.Forward([]int{0}); math.Abs(got-math.Log(0.34)) > 1e-12 {
		t.Errorf("logP(normal) = %g, want %g", got, math.Log(0.34))
	}
	// Hand-computed two-step likelihood:
	// α1 = {0.30, 0.04}; α2(h) = (0.3*0.7+0.04*0.4)*0.4 = 0.0904,
	// α2(f) = (0.3*0.3+0.04*0.6)*0.3 = 0.0342 → P = 0.1246.
	if got := h.Forward([]int{0, 1}); math.Abs(got-math.Log(0.1246)) > 1e-12 {
		t.Errorf("logP(normal,cold) = %g, want %g", got, math.Log(0.1246))
	}
	if got := h.Forward(nil); got != 0 {
		t.Errorf("logP(empty) = %g", got)
	}
}

func TestForwardImpossible(t *testing.T) {
	h := New(model3())
	if got := h.Forward([]int{h.Observation("2X")}); !math.IsInf(got, -1) {
		t.Errorf("impossible sequence logP = %g, want -Inf", got)
	}
}

func TestForwardMonotoneInLength(t *testing.T) {
	// Adding observations can only decrease the log-likelihood.
	h := wikiHMM()
	obs := []int{0, 1, 2, 0, 1, 2, 2, 0}
	prev := 0.0
	for n := 1; n <= len(obs); n++ {
		l := h.Forward(obs[:n])
		if l > prev+1e-12 {
			t.Fatalf("logP increased at length %d: %g > %g", n, l, prev)
		}
		prev = l
	}
}

func TestViterbiPathAtLeastAsLikelyAsGreedy(t *testing.T) {
	// The Viterbi path's joint probability must be ≥ the greedy filtered
	// path's joint probability.
	h := wikiHMM()
	obs := []int{0, 2, 1, 0, 2}
	joint := func(path []int) float64 {
		p := h.Pi[path[0]] * h.B[path[0]][obs[0]]
		for t2 := 1; t2 < len(path); t2++ {
			p *= h.A[path[t2-1]][path[t2]] * h.B[path[t2]][obs[t2]]
		}
		return p
	}
	vit := h.Viterbi(obs)
	greedy := make([]int, len(obs))
	b := h.InitialBelief()
	for i := range b {
		b[i] *= h.B[i][obs[0]]
	}
	greedy[0] = h.Predict(b)
	for t2 := 1; t2 < len(obs); t2++ {
		b = h.Filter(b, obs[t2])
		greedy[t2] = h.Predict(b)
	}
	if joint(vit) < joint(greedy)-1e-15 {
		t.Errorf("Viterbi joint %g < greedy joint %g", joint(vit), joint(greedy))
	}
}

func TestBaumWelchImprovesLikelihood(t *testing.T) {
	h := wikiHMM()
	seqs := [][]int{
		{0, 0, 1, 2, 2, 1, 0},
		{2, 2, 2, 1, 0},
		{0, 1, 0, 0, 1, 2},
	}
	var before float64
	for _, s := range seqs {
		before += h.Forward(s)
	}
	h.BaumWelch(seqs, 25, 1e-9)
	var after float64
	for _, s := range seqs {
		after += h.Forward(s)
	}
	if after < before-1e-9 {
		t.Errorf("Baum-Welch decreased log-likelihood: %g -> %g", before, after)
	}
	// Matrices stay row-stochastic.
	for i, row := range h.A {
		var sum float64
		for _, v := range row {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("A row %d sums to %g", i, sum)
		}
	}
	for i, row := range h.B {
		var sum float64
		for _, v := range row {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("B row %d sums to %g", i, sum)
		}
	}
}

func TestBaumWelchPreservesTopology(t *testing.T) {
	// Structural zeros of the mined PSM must survive re-estimation.
	h := New(model3())
	seqs := [][]int{{
		h.Observation("0U"), h.Observation("1U"), h.Observation("0U"),
		h.Observation("1U"), h.Observation("2X"), h.Observation("0U"),
	}}
	h.BaumWelch(seqs, 10, 1e-9)
	if h.A[0][2] != 0 {
		t.Errorf("A[0][2] = %g, want 0 (no mined edge s0->s2)", h.A[0][2])
	}
	if h.A[0][0] != 0 {
		t.Errorf("A[0][0] = %g, want 0 (no self loop mined)", h.A[0][0])
	}
	if h.B[0][h.Observation("2X")] != 0 {
		t.Errorf("B[0][2X] should stay 0")
	}
}

func TestBaumWelchFitsGeneratedData(t *testing.T) {
	// Generate sequences from a known sharp model; starting from a blurred
	// version, EM must move A towards the truth.
	truth := &HMM{
		Pi: []float64{1, 0},
		A: [][]float64{
			{0.9, 0.1},
			{0.2, 0.8},
		},
		B: [][]float64{
			{0.95, 0.05},
			{0.05, 0.95},
		},
		Assertions: map[string]int{"a": 0, "b": 1},
	}
	// Deterministic sampling via a tiny LCG.
	seed := uint64(12345)
	next := func() float64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return float64(seed>>11) / (1 << 53)
	}
	sample := func(p []float64) int {
		r := next()
		acc := 0.0
		for i, v := range p {
			acc += v
			if r < acc {
				return i
			}
		}
		return len(p) - 1
	}
	var seqs [][]int
	for s := 0; s < 20; s++ {
		state := sample(truth.Pi)
		var obs []int
		for t2 := 0; t2 < 60; t2++ {
			obs = append(obs, sample(truth.B[state]))
			state = sample(truth.A[state])
		}
		seqs = append(seqs, obs)
	}

	blurred := &HMM{
		Pi: []float64{1, 0},
		A: [][]float64{
			{0.5, 0.5},
			{0.5, 0.5},
		},
		B: [][]float64{
			{0.7, 0.3},
			{0.3, 0.7},
		},
		Assertions: map[string]int{"a": 0, "b": 1},
	}
	blurred.BaumWelch(seqs, 60, 1e-9)
	if math.Abs(blurred.A[0][0]-0.9) > 0.1 {
		t.Errorf("A[0][0] = %g, want ≈0.9", blurred.A[0][0])
	}
	if math.Abs(blurred.A[1][1]-0.8) > 0.1 {
		t.Errorf("A[1][1] = %g, want ≈0.8", blurred.A[1][1])
	}
	if math.Abs(blurred.B[0][0]-0.95) > 0.08 {
		t.Errorf("B[0][0] = %g, want ≈0.95", blurred.B[0][0])
	}
}

func TestBaumWelchIgnoresImpossibleSequences(t *testing.T) {
	h := New(model3())
	// A sequence outside the support must not corrupt the model.
	before := h.Clone()
	h.BaumWelch([][]int{{h.Observation("2X"), h.Observation("2X")}}, 5, 1e-9)
	for i := range h.A {
		for j := range h.A[i] {
			if h.A[i][j] != before.A[i][j] {
				t.Fatalf("A[%d][%d] changed on impossible data", i, j)
			}
		}
	}
}

// Clone deep-copies the model, so a test can mask or retrain one copy
// and compare it with the trained original.
func (h *HMM) Clone() *HMM {
	c := &HMM{
		A:          make([][]float64, len(h.A)),
		B:          make([][]float64, len(h.B)),
		Pi:         append([]float64(nil), h.Pi...),
		Assertions: make(map[string]int, len(h.Assertions)),
	}
	for i := range h.A {
		c.A[i] = append([]float64(nil), h.A[i]...)
	}
	for i := range h.B {
		c.B[i] = append([]float64(nil), h.B[i]...)
	}
	for k, v := range h.Assertions {
		c.Assertions[k] = v
	}
	return c
}
