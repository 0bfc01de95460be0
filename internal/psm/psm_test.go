package psm

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"psmkit/internal/logic"
	"psmkit/internal/mining"
	"psmkit/internal/stats"
	"psmkit/internal/trace"
)

// fig3 builds the functional, proposition and power traces of the paper's
// Fig. 3 (see mining's golden test for the functional-trace layout).
func fig3(t *testing.T) (*mining.Dictionary, *mining.PropTrace, *trace.Power) {
	t.Helper()
	f := trace.NewFunctional([]trace.Signal{
		{Name: "v1", Width: 1}, {Name: "v2", Width: 1},
		{Name: "v3", Width: 4}, {Name: "v4", Width: 4},
	})
	rows := [][4]uint64{
		{1, 0, 3, 1}, {1, 0, 3, 1}, {1, 0, 3, 1},
		{0, 1, 3, 3}, {0, 1, 4, 4}, {0, 1, 2, 2},
		{1, 1, 0, 0}, {1, 1, 3, 1},
	}
	for _, r := range rows {
		f.Append([]logic.Vector{
			logic.FromUint64(1, r[0]), logic.FromUint64(1, r[1]),
			logic.FromUint64(4, r[2]), logic.FromUint64(4, r[3]),
		})
	}
	dict, pts, err := mining.Mine([]*trace.Functional{f}, mining.Config{MinSupport: 0.1, MinRunLength: 2})
	if err != nil {
		t.Fatal(err)
	}
	pw := &trace.Power{Values: []float64{3.349, 3.339, 3.353, 1.902, 1.906, 1.944, 3.350, 3.343}}
	return dict, pts[0], pw
}

// TestFig5PSMGenerator is the golden reproduction of the paper's Fig. 5:
// the XU automaton over the Fig. 3 proposition trace must recognize
// ⟨p_a U p_b, 0, 2⟩, ⟨p_b U p_c, 3, 5⟩ and the next-pattern p_c X p_d,
// yielding a three-state chain with transitions enabled by p_b and p_c.
func TestFig5PSMGenerator(t *testing.T) {
	dict, pt, pw := fig3(t)
	c, err := Generate(dict, pt, pw, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.States) != 3 {
		t.Fatalf("states = %d, want 3", len(c.States))
	}
	pa, pb, pc := pt.IDs[0], pt.IDs[3], pt.IDs[6]

	s0 := c.States[0]
	if got := s0.Alts[0].Seq.Phases[0]; got.Prop != pa || got.Kind != Until {
		t.Errorf("s0 phase = %+v, want until(p_a)", got)
	}
	if iv := s0.Intervals[0]; iv.Start != 0 || iv.Stop != 2 {
		t.Errorf("s0 interval = %+v, want [0,2]", iv)
	}
	if s0.Power.N != 3 {
		t.Errorf("s0 n = %d, want 3", s0.Power.N)
	}
	wantMu := (3.349 + 3.339 + 3.353) / 3
	if math.Abs(s0.Power.Mean()-wantMu) > 1e-12 {
		t.Errorf("s0 μ = %g, want %g", s0.Power.Mean(), wantMu)
	}

	s1 := c.States[1]
	if got := s1.Alts[0].Seq.Phases[0]; got.Prop != pb || got.Kind != Until {
		t.Errorf("s1 phase = %+v, want until(p_b)", got)
	}
	if iv := s1.Intervals[0]; iv.Start != 3 || iv.Stop != 5 {
		t.Errorf("s1 interval = %+v", iv)
	}

	s2 := c.States[2]
	if got := s2.Alts[0].Seq.Phases[0]; got.Prop != pc || got.Kind != Next {
		t.Errorf("s2 phase = %+v, want next(p_c)", got)
	}
	if s2.Power.N != 1 {
		t.Errorf("s2 n = %d, want 1 (Case 1 of Sec. IV-A requires n=1 for next-states)", s2.Power.N)
	}
	if math.Abs(s2.Power.Mean()-3.350) > 1e-12 {
		t.Errorf("s2 μ = %g, want 3.350", s2.Power.Mean())
	}

	// Transitions: s0 --p_b--> s1 --p_c--> s2.
	ts := ChainTransitions(c)
	if len(ts) != 2 {
		t.Fatalf("transitions = %d, want 2", len(ts))
	}
	if ts[0].Enabling != pb || ts[1].Enabling != pc {
		t.Errorf("enabling = %d,%d want %d,%d", ts[0].Enabling, ts[1].Enabling, pb, pc)
	}
}

func TestGenerateErrors(t *testing.T) {
	dict, pt, pw := fig3(t)
	if _, err := Generate(dict, &mining.PropTrace{}, pw, 0); err == nil {
		t.Error("empty proposition trace accepted")
	}
	if _, err := Generate(dict, pt, &trace.Power{Values: []float64{1}}, 0); err == nil {
		t.Error("short power trace accepted")
	}
	single := &mining.PropTrace{IDs: []int{0}}
	if _, err := Generate(dict, single, pw, 0); err == nil {
		t.Error("single-instant trace should expose no pattern")
	}
}

func TestGenerateAllSameProposition(t *testing.T) {
	dict, _, pw := fig3(t)
	pt := &mining.PropTrace{IDs: []int{4, 4, 4, 4, 4}}
	// One run reaching the end of the trace: no successor, no state.
	if _, err := Generate(dict, pt, pw, 0); err == nil {
		t.Error("uniform trace should yield no states")
	}
}

// --- mergeability -----------------------------------------------------------

func momentsConst(v float64, n int) stats.Moments {
	var m stats.Moments
	for i := 0; i < n; i++ {
		m.Add(v)
	}
	return m
}

func momentsJitter(v float64, n int, amp float64) stats.Moments {
	var m stats.Moments
	for i := 0; i < n; i++ {
		x := v * (1 + amp*float64(i%3-1))
		m.Add(x)
	}
	return m
}

func TestMergeableCase1(t *testing.T) {
	p := DefaultMergePolicy()
	a := momentsConst(10, 1)
	if !p.Mergeable(a, momentsConst(10.2, 1)) {
		t.Error("2% apart next-states should merge at ε=5%")
	}
	if p.Mergeable(a, momentsConst(12, 1)) {
		t.Error("20% apart next-states merged")
	}
}

func TestMergeableCase2(t *testing.T) {
	p := MergePolicy{Alpha: 0.05, EquivalenceMargin: 0, MaxCV: 0.5}
	a := momentsJitter(10, 30, 0.02)
	b := momentsJitter(10, 30, 0.02)
	if !p.Mergeable(a, b) {
		t.Error("identically distributed until-states should merge")
	}
	c := momentsJitter(20, 30, 0.02)
	if p.Mergeable(a, c) {
		t.Error("2x power until-states merged")
	}
}

func TestMergeableCase2LargeNEquivalenceMargin(t *testing.T) {
	// Two big samples whose means differ by 0.5%: Welch rejects (huge n),
	// the equivalence margin must step in.
	a := momentsJitter(10, 5000, 0.01)
	b := momentsJitter(10.05, 5000, 0.01)
	strict := MergePolicy{Alpha: 0.05, EquivalenceMargin: 0, MaxCV: 1}
	if strict.Mergeable(a, b) {
		t.Skip("Welch did not reject; margin not exercised")
	}
	relaxed := MergePolicy{Alpha: 0.05, EquivalenceMargin: 0.02, MaxCV: 1}
	if !relaxed.Mergeable(a, b) {
		t.Error("equivalence margin did not rescue near-identical states")
	}
}

func TestMergeableCase3(t *testing.T) {
	p := MergePolicy{Alpha: 0.05, EquivalenceMargin: 0, MaxCV: 0.5}
	until := momentsJitter(10, 30, 0.05)
	if !p.Mergeable(until, momentsConst(10.1, 1)) {
		t.Error("in-distribution next-state should merge into until-state")
	}
	if p.Mergeable(until, momentsConst(30, 1)) {
		t.Error("far-out next-state merged")
	}
	// symmetric argument order
	if !p.Mergeable(momentsConst(10.1, 1), until) {
		t.Error("Case 3 should be symmetric")
	}
}

func TestMergeableCVGuard(t *testing.T) {
	p := MergePolicy{Alpha: 0.05, EquivalenceMargin: 0.5, MaxCV: 0.1}
	noisy := momentsJitter(10, 30, 0.5) // CV ≈ 0.4
	calm := momentsJitter(10, 30, 0.01)
	if p.Mergeable(noisy, calm) {
		t.Error("high-σ state merged despite CV guard")
	}
}

func TestMergeableEmpty(t *testing.T) {
	p := DefaultMergePolicy()
	if p.Mergeable(stats.Moments{}, momentsConst(1, 1)) {
		t.Error("empty moments mergeable")
	}
}

// --- simplify (Fig. 6a) -------------------------------------------------------

// simplifyFixture builds a chain with four runs whose power profile makes
// exactly the first two states mergeable: p0 (μ≈1) p1 (μ≈1) p2 (μ≈5).
func simplifyFixture(t *testing.T) (*Chain, *mining.Dictionary) {
	t.Helper()
	f := trace.NewFunctional([]trace.Signal{{Name: "m0", Width: 1}, {Name: "m1", Width: 1}})
	add := func(m0, m1 uint64, n int) {
		for i := 0; i < n; i++ {
			f.Append([]logic.Vector{logic.FromUint64(1, m0), logic.FromUint64(1, m1)})
		}
	}
	add(0, 0, 4) // run A
	add(0, 1, 4) // run B (same power as A)
	add(1, 0, 4) // run C (higher power)
	add(1, 1, 2) // terminator run
	dict, pts, err := mining.Mine([]*trace.Functional{f}, mining.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pw := &trace.Power{Values: []float64{
		1.00, 1.01, 0.99, 1.00,
		1.01, 1.00, 1.00, 0.99,
		5.00, 5.05, 4.95, 5.00,
		5.00, 5.00,
	}}
	c, err := Generate(dict, pts[0], pw, 0)
	if err != nil {
		t.Fatal(err)
	}
	return c, dict
}

func TestFig6Simplify(t *testing.T) {
	c, _ := simplifyFixture(t)
	if len(c.States) != 3 {
		t.Fatalf("precondition: chain has %d states, want 3", len(c.States))
	}
	s := Simplify(c, DefaultMergePolicy())
	if len(s.States) != 2 {
		t.Fatalf("simplified states = %d, want 2", len(s.States))
	}
	merged := s.States[0]
	// Cascade {p_A; p_B} like Fig. 6(a).
	if len(merged.Alts) != 1 || len(merged.Alts[0].Seq.Phases) != 2 {
		t.Fatalf("merged state alts/phases wrong: %+v", merged.Alts)
	}
	// Power attributes recomputed over the union [0,7].
	if merged.Power.N != 8 {
		t.Errorf("merged n = %d, want 8", merged.Power.N)
	}
	if iv := merged.Intervals[0]; iv.Start != 0 || iv.Stop != 7 {
		t.Errorf("merged interval = %+v, want [0,7]", iv)
	}
	wantMu := (1.00 + 1.01 + 0.99 + 1.00 + 1.01 + 1.00 + 1.00 + 0.99) / 8
	if math.Abs(merged.Power.Mean()-wantMu) > 1e-12 {
		t.Errorf("merged μ = %g, want %g", merged.Power.Mean(), wantMu)
	}
	// The original chain is untouched.
	if len(c.States) != 3 {
		t.Error("Simplify mutated its input")
	}
	// IDs renumbered.
	if s.States[0].ID != 0 || s.States[1].ID != 1 {
		t.Errorf("ids not renumbered: %d, %d", s.States[0].ID, s.States[1].ID)
	}
}

func TestSimplifyNothingToMerge(t *testing.T) {
	dict, pt, pw := fig3(t)
	c, err := Generate(dict, pt, pw, 0)
	if err != nil {
		t.Fatal(err)
	}
	// fig3 power: 3.35 / 1.9 / 3.35 — adjacent states differ.
	s := Simplify(c, DefaultMergePolicy())
	if len(s.States) != len(c.States) {
		t.Errorf("states merged unexpectedly: %d -> %d", len(c.States), len(s.States))
	}
}

// --- join (Fig. 6b) -----------------------------------------------------------

func TestFig6Join(t *testing.T) {
	// Two chains from two traces with the same structure: join must
	// collapse the power-equivalent states across chains.
	mkChain := func(traceIdx int) *Chain {
		f := trace.NewFunctional([]trace.Signal{{Name: "m0", Width: 1}, {Name: "m1", Width: 1}})
		add := func(m0, m1 uint64, n int) {
			for i := 0; i < n; i++ {
				f.Append([]logic.Vector{logic.FromUint64(1, m0), logic.FromUint64(1, m1)})
			}
		}
		add(0, 0, 4)
		add(1, 0, 4)
		add(1, 1, 2)
		dict, pts, err := mining.Mine([]*trace.Functional{f}, mining.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		pw := &trace.Power{Values: []float64{
			1.00, 1.01, 0.99, 1.00,
			5.00, 5.05, 4.95, 5.00,
			5.00, 5.00,
		}}
		c, err := Generate(dict, pts[0], pw, traceIdx)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c0, c1 := mkChain(0), mkChain(1)
	m := Join([]*Chain{c0, c1}, DefaultMergePolicy())

	// Both chains have states (idle μ≈1, busy μ≈5); join collapses the
	// equivalents pairwise: 4 pooled states → 2.
	if m.NumStates() != 2 {
		t.Fatalf("joined states = %d, want 2", m.NumStates())
	}
	// The collapsed idle state carries the assertion once per chain.
	var idle, busy *State
	for _, s := range m.States {
		if s.Power.Mean() < 2 {
			idle = s
		} else {
			busy = s
		}
	}
	if idle == nil || busy == nil {
		t.Fatal("missing idle or busy state")
	}
	if len(idle.Alts) != 1 || idle.Alts[0].Count != 2 {
		t.Errorf("idle alts = %+v, want one assertion with count 2", idle.Alts)
	}
	if idle.Power.N != 8 {
		t.Errorf("idle pooled n = %d, want 8", idle.Power.N)
	}
	if len(idle.Intervals) != 2 {
		t.Errorf("idle intervals = %+v, want one per chain", idle.Intervals)
	}
	// Both chains started in the idle state: π mass 2.
	if m.Initials[idle.ID] != 2 {
		t.Errorf("initials = %v", m.Initials)
	}
	// The duplicate transitions aggregated: idle→busy with count 2.
	ts := m.OutgoingEnabled(idle.ID, busy.Alts[0].Seq.Phases[0].Prop)
	if len(ts) != 1 || ts[0].Count != 2 {
		t.Errorf("aggregated transition = %+v", ts)
	}
}

func TestJoinKeepsDistinctPower(t *testing.T) {
	c, _ := simplifyFixture(t)
	s := Simplify(c, DefaultMergePolicy())
	m := Join([]*Chain{s}, DefaultMergePolicy())
	if m.NumStates() != 2 {
		t.Errorf("states = %d, want 2 (1 vs 5 power must stay apart)", m.NumStates())
	}
}

func TestJoinEmpty(t *testing.T) {
	m := Join(nil, DefaultMergePolicy())
	if m.NumStates() != 0 {
		t.Error("empty join should be empty")
	}
}

// --- calibration ---------------------------------------------------------------

func TestCalibrateDataDependentState(t *testing.T) {
	// A "write burst" whose power is 2 + 3*HD(inputs): the state's CV is
	// high and the regression must recover the line.
	f := trace.NewFunctional([]trace.Signal{{Name: "we", Width: 1}, {Name: "data", Width: 8}})
	var pwv []float64
	// idle preamble
	for i := 0; i < 5; i++ {
		f.Append([]logic.Vector{logic.FromUint64(1, 0), logic.FromUint64(8, 0)})
		pwv = append(pwv, 0.5)
	}
	// write burst with data toggling a varying number of bits
	patterns := []uint64{0x00, 0xff, 0x0f, 0xff, 0x01, 0x03, 0xff, 0x00, 0xaa, 0x55, 0xf0, 0x0f}
	for _, d := range patterns {
		f.Append([]logic.Vector{logic.FromUint64(1, 1), logic.FromUint64(8, d)})
		// Power is filled in below from the exact input Hamming distances
		// (the we toggle at the burst boundary counts toward the HD too).
		pwv = append(pwv, 0)
	}
	// terminator
	f.Append([]logic.Vector{logic.FromUint64(1, 0), logic.FromUint64(8, 0)})
	pwv = append(pwv, 0.5)
	f.Append([]logic.Vector{logic.FromUint64(1, 0), logic.FromUint64(8, 0)})
	pwv = append(pwv, 0.5)

	inputCols := []int{f.Column("we"), f.Column("data")}
	hds := f.InputHammingDistance(inputCols)
	for t2 := 5; t2 < 5+len(patterns); t2++ {
		pwv[t2] = 2 + 3*hds[t2]
	}

	dict, pts, err := mining.Mine([]*trace.Functional{f}, mining.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pw := &trace.Power{Values: pwv}
	c, err := Generate(dict, pts[0], pw, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := Join([]*Chain{Simplify(c, DefaultMergePolicy())}, DefaultMergePolicy())

	n := Calibrate(m, []*trace.Functional{f}, []*trace.Power{pw}, inputCols, DefaultCalibrationPolicy())
	if n < 1 {
		t.Fatalf("calibrated %d states, want at least the burst state", n)
	}
	fits := 0
	for _, s := range m.States {
		if s.Fit == nil {
			if got := s.Estimate(4); got != s.Power.Mean() {
				t.Errorf("uncalibrated Estimate should be μ")
			}
			continue
		}
		fits++
		// Every calibrated state sits on the exact synthetic line.
		if math.Abs(s.Fit.Slope-3) > 1e-9 || math.Abs(s.Fit.Intercept-2) > 1e-9 {
			t.Errorf("fit = %+v, want slope 3 intercept 2", s.Fit)
		}
		if got := s.Estimate(4); math.Abs(got-14) > 1e-9 {
			t.Errorf("Estimate(4) = %g, want 14", got)
		}
	}
	if fits != n {
		t.Errorf("Calibrate reported %d but %d states carry fits", n, fits)
	}
}

func TestCalibrateSkipsLowCV(t *testing.T) {
	dict, pt, pw := fig3(t)
	c, _ := Generate(dict, pt, pw, 0)
	m := Join([]*Chain{c}, DefaultMergePolicy())
	// fig3's states have tiny spreads: nothing to calibrate.
	if n := Calibrate(m, nil, nil, nil, DefaultCalibrationPolicy()); n != 0 {
		t.Errorf("calibrated %d states on low-CV model", n)
	}
}

// --- Fig. 2: hand-built example PSM ---------------------------------------------

// TestFig2ExamplePSM reproduces the paper's Fig. 2 example — a PSM with
// off (0 mW), idle (15 mW) and run (100 mW) states guarded by on/ready/
// start inputs — through the public construction APIs, and checks the
// output function and exports.
func TestFig2ExamplePSM(t *testing.T) {
	f := trace.NewFunctional([]trace.Signal{
		{Name: "on", Width: 1}, {Name: "ready", Width: 1}, {Name: "start", Width: 1},
	})
	add := func(on, ready, start uint64, n int) {
		for i := 0; i < n; i++ {
			f.Append([]logic.Vector{
				logic.FromUint64(1, on), logic.FromUint64(1, ready), logic.FromUint64(1, start),
			})
		}
	}
	var pwv []float64
	addP := func(v float64, n int) {
		for i := 0; i < n; i++ {
			pwv = append(pwv, v)
		}
	}
	add(0, 0, 0, 5) // off
	addP(0.000, 5)
	add(1, 1, 0, 5) // idle
	addP(0.015, 5)
	add(1, 1, 1, 5) // run
	addP(0.100, 5)
	add(1, 1, 0, 3) // idle again
	addP(0.015, 3)
	add(0, 0, 0, 2) // off (terminator)
	addP(0.000, 2)

	dict, pts, err := mining.Mine([]*trace.Functional{f}, mining.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, err := Generate(dict, pts[0], &trace.Power{Values: pwv}, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := Join([]*Chain{Simplify(c, DefaultMergePolicy())}, DefaultMergePolicy())

	// off / idle / run / idle with idle states joined: 3 states.
	if m.NumStates() != 3 {
		t.Fatalf("states = %d, want 3 (off, idle, run)", m.NumStates())
	}
	var means []float64
	for _, s := range m.States {
		means = append(means, s.Power.Mean())
	}
	found := map[string]bool{}
	for _, mu := range means {
		switch {
		case mu < 0.001:
			found["off"] = true
		case math.Abs(mu-0.015) < 0.001:
			found["idle"] = true
		case math.Abs(mu-0.100) < 0.001:
			found["run"] = true
		}
	}
	for _, name := range []string{"off", "idle", "run"} {
		if !found[name] {
			t.Errorf("missing %s state (means: %v)", name, means)
		}
	}
}

// --- exports -------------------------------------------------------------------

func TestWriteDOT(t *testing.T) {
	dict, pt, pw := fig3(t)
	c, _ := Generate(dict, pt, pw, 0)
	// A no-merge policy keeps the three Fig. 5 states distinct in the DOT.
	m := Join([]*Chain{c}, MergePolicy{Alpha: 1.1})
	var buf bytes.Buffer
	if err := m.WriteDOT(&buf, "fig5"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph", "s0", "s1", "s2", "->", "peripheries=2"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	dict, pt, pw := fig3(t)
	c, _ := Generate(dict, pt, pw, 0)
	m := Join([]*Chain{c}, DefaultMergePolicy())
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"states"`, `"transitions"`, `"mu"`, `"enabling"`, `"initials"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %q", want)
		}
	}
}

func TestSequenceKeyAndString(t *testing.T) {
	s := Sequence{Phases: []Phase{{Prop: 3, Kind: Until}, {Prop: 1, Kind: Next}}}
	if s.Key() != "3U;1X" {
		t.Errorf("Key = %q", s.Key())
	}
	s2 := Sequence{Phases: []Phase{{Prop: 3, Kind: Until}, {Prop: 1, Kind: Until}}}
	if s.Key() == s2.Key() {
		t.Error("different kinds produced equal keys")
	}
}

// TestSameAssertionMatchesKey: join merges alternatives by value, so
// sameAssertion must be exactly Key equality — over random cascades of
// every length, including a pattern kind outside Until/Next (which Key
// renders as X).
func TestSameAssertionMatchesKey(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seq := func() Sequence {
		s := Sequence{Phases: make([]Phase, rng.Intn(4))}
		for i := range s.Phases {
			s.Phases[i] = Phase{Prop: rng.Intn(3), Kind: PatternKind(rng.Intn(3))}
		}
		return s
	}
	for i := 0; i < 5000; i++ {
		a, b := seq(), seq()
		if got, want := sameAssertion(a, b), a.Key() == b.Key(); got != want {
			t.Fatalf("sameAssertion(%q, %q) = %v, keys equal %v", a.Key(), b.Key(), got, want)
		}
	}
}

func TestFirstProps(t *testing.T) {
	st := &State{Alts: []Alt{
		{Seq: Sequence{Phases: []Phase{{Prop: 2, Kind: Until}}}},
		{Seq: Sequence{Phases: []Phase{{Prop: 2, Kind: Next}}}},
		{Seq: Sequence{Phases: []Phase{{Prop: 5, Kind: Until}}}},
	}}
	fp := st.FirstProps()
	if len(fp) != 2 || fp[0] != 2 || fp[1] != 5 {
		t.Errorf("FirstProps = %v", fp)
	}
}
