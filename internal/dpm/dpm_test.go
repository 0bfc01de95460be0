package dpm

import (
	"math"
	"testing"
	"testing/quick"

	"psmkit/internal/experiment"
	"psmkit/internal/logic"
	"psmkit/internal/psm"
	"psmkit/internal/stats"
	"psmkit/internal/testbench"
	"psmkit/internal/trace"
)

// prof builds a synthetic profile: active bursts of power 10 separated by
// idle gaps of power 2, with configurable sleep economics.
func prof(pattern []int, sleep, wakeE float64, wakeLat int) *Profile {
	p := &Profile{
		SleepPower:   sleep,
		WakeEnergy:   wakeE,
		WakeLatency:  wakeLat,
		CycleSeconds: 1, // joules == watt-cycles for easy arithmetic
	}
	for i, seg := range pattern {
		active := i%2 == 0
		for c := 0; c < seg; c++ {
			if active {
				p.Power = append(p.Power, 10)
				p.Active = append(p.Active, true)
			} else {
				p.Power = append(p.Power, 2)
				p.Active = append(p.Active, false)
			}
		}
	}
	return p
}

func TestAlwaysOnMatchesBaseline(t *testing.T) {
	p := prof([]int{3, 5, 2, 10, 4}, 0, 6, 2)
	r := Evaluate(p, AlwaysOn{})
	if r.EnergyJ != r.BaselineJ {
		t.Errorf("always-on energy %g != baseline %g", r.EnergyJ, r.BaselineJ)
	}
	if r.Savings != 0 || r.Shutdowns != 0 || r.SleepCycles != 0 || r.AddedLatency != 0 {
		t.Errorf("always-on result not neutral: %+v", r)
	}
	// baseline = 3*10 + 5*2 + 2*10 + 10*2 + 4*10 = 120
	if r.BaselineJ != 120 {
		t.Errorf("baseline = %g, want 120", r.BaselineJ)
	}
}

func TestImmediateTimeoutArithmetic(t *testing.T) {
	// One active burst (2), idle gap (4), active burst (2).
	p := prof([]int{2, 4, 2}, 0, 3, 1)
	r := Evaluate(p, Timeout{N: 1}) // gate on the first idle cycle
	// Energy: 2*10 (burst) + 4*0 (gated idle) + 3 (wake) + 2*10 (burst) = 43.
	if math.Abs(r.EnergyJ-43) > 1e-12 {
		t.Errorf("energy = %g, want 43", r.EnergyJ)
	}
	if r.Shutdowns != 1 || r.SleepCycles != 4 || r.AddedLatency != 1 {
		t.Errorf("result = %+v", r)
	}
	// Baseline 2*10+4*2+2*10 = 48 → savings = 5/48.
	if math.Abs(r.Savings-5.0/48.0) > 1e-12 {
		t.Errorf("savings = %g", r.Savings)
	}
}

func TestTimeoutDelaysShutdown(t *testing.T) {
	p := prof([]int{1, 6, 1}, 0, 0, 0)
	r := Evaluate(p, Timeout{N: 3})
	// Idle cycles 1 and 2 stay awake (2 W each); cycles 3..6 gated.
	// Energy: 10 + 2 + 2 + 0*4 + 10 = 24.
	if math.Abs(r.EnergyJ-24) > 1e-12 {
		t.Errorf("energy = %g, want 24", r.EnergyJ)
	}
	if r.SleepCycles != 4 {
		t.Errorf("sleep cycles = %d, want 4", r.SleepCycles)
	}
}

func TestWakePenaltyCanMakeGatingWorse(t *testing.T) {
	// Short gaps + expensive wake-ups: immediate gating must LOSE.
	p := prof([]int{2, 2, 2, 2, 2}, 0, 50, 0)
	eager := Evaluate(p, Timeout{N: 1}) // gate on the first idle cycle
	if eager.Savings >= 0 {
		t.Errorf("eager gating with 50 J wake-ups should lose energy, savings = %g", eager.Savings)
	}
	// The oracle never does worse than always-on.
	oracle := Oracle(p)
	if oracle.Savings < 0 {
		t.Errorf("oracle went negative: %+v", oracle)
	}
	if oracle.EnergyJ > eager.EnergyJ {
		t.Errorf("oracle %g worse than eager %g", oracle.EnergyJ, eager.EnergyJ)
	}
}

func TestOracleGatesOnlyProfitablePeriods(t *testing.T) {
	// Gap 1: 3 idle cycles × 2 W = 6 J vs wake 4 J → gate.
	// Gap 2: 1 idle cycle = 2 J vs wake 4 J → stay awake.
	p := prof([]int{1, 3, 1, 1, 1}, 0, 4, 0)
	r := Oracle(p)
	if r.Shutdowns != 1 {
		t.Errorf("oracle shutdowns = %d, want 1", r.Shutdowns)
	}
	// Energy: 10 + (0*3 + 4) + 10 + 2 + 10 = 36.
	if math.Abs(r.EnergyJ-36) > 1e-12 {
		t.Errorf("oracle energy = %g, want 36", r.EnergyJ)
	}
}

func TestOracleSkipsWakeAtEnd(t *testing.T) {
	// The profile ends idle: gating the tail pays no wake-up.
	p := prof([]int{1, 5}, 0, 3, 2)
	r := Oracle(p)
	// Energy: 10 + 0 (tail gated, no wake) = 10.
	if math.Abs(r.EnergyJ-10) > 1e-12 {
		t.Errorf("energy = %g, want 10", r.EnergyJ)
	}
	if r.AddedLatency != 0 {
		t.Errorf("latency = %d, want 0 (no wake at end)", r.AddedLatency)
	}
}

func TestBreakEvenCycles(t *testing.T) {
	p := &Profile{SleepPower: 0.5, WakeEnergy: 9, CycleSeconds: 1}
	// (2 - 0.5)*1 = 1.5 J/cycle saved → ceil(9/1.5) = 6.
	if got := BreakEvenCycles(p, 2); got != 6 {
		t.Errorf("break-even = %d, want 6", got)
	}
	// Sleeping never pays when sleep power exceeds idle power.
	if got := BreakEvenCycles(p, 0.4); got != math.MaxInt32 {
		t.Errorf("break-even = %d, want MaxInt32", got)
	}
}

func TestSweepOrderingInvariants(t *testing.T) {
	f := func(seed int64) bool {
		// Random profile via the quick generator: random segments.
		rng := newRand(seed)
		var pattern []int
		for i := 0; i < rng.intn(10)+2; i++ {
			pattern = append(pattern, rng.intn(8)+1)
		}
		p := prof(pattern, 0.1, float64(rng.intn(10)), rng.intn(3))
		rs := Sweep(p, []int{1, 2, 4, 8})
		oracle := rs[len(rs)-1]
		for _, r := range rs[:len(rs)-1] {
			// The oracle is optimal among all evaluated policies.
			if oracle.EnergyJ > r.EnergyJ+1e-9 {
				return false
			}
		}
		// Always-on has zero savings by definition.
		return rs[0].Savings == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// newRand is a tiny deterministic generator for the quick test (avoids
// pulling math/rand into a table-driven helper).
type miniRand struct{ s uint64 }

func newRand(seed int64) *miniRand { return &miniRand{s: uint64(seed)*2654435761 + 1} }

func (r *miniRand) intn(n int) int {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return int(r.s % uint64(n))
}

func TestBuildProfileFromGeneratedPSM(t *testing.T) {
	// End to end: train a RAM PSM, derive the activity profile, and check
	// the power manager finds real savings on the idle/polling share.
	c, err := experiment.CaseByName("RAM")
	if err != nil {
		t.Fatal(err)
	}
	ts, err := experiment.GenerateTraces(c, 6000, experiment.Pieces, testbench.Options{Seed: c.Seed})
	if err != nil {
		t.Fatal(err)
	}
	flow, err := experiment.BuildModel(ts, experiment.DefaultPolicies())
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildProfile(flow.Model, ts.FTs[0], ts.InputCols, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != ts.FTs[0].Len() {
		t.Fatalf("profile length %d", p.Len())
	}
	actives := 0
	for _, a := range p.Active {
		if a {
			actives++
		}
	}
	if actives == 0 || actives == p.Len() {
		t.Fatalf("degenerate activity classification: %d of %d", actives, p.Len())
	}

	p.SleepPower = 0
	p.WakeEnergy = 2e-6 * 20e-9 // small vs the idle energy at 50 MHz
	p.WakeLatency = 3
	p.CycleSeconds = 20e-9
	rs := Sweep(p, []int{1, 4, 16, 64})
	oracle := rs[len(rs)-1]
	if oracle.Savings <= 0 {
		t.Errorf("oracle found no savings: %+v", oracle)
	}
	// Some timeout policy should capture a meaningful share of the oracle.
	best := 0.0
	for _, r := range rs[1 : len(rs)-1] {
		if r.Savings > best {
			best = r.Savings
		}
	}
	if best <= 0 {
		t.Error("no timeout policy saved energy")
	}
	if best > oracle.Savings+1e-9 {
		t.Errorf("timeout policy (%.3f) beat the oracle (%.3f)", best, oracle.Savings)
	}
}

func TestBuildProfileErrors(t *testing.T) {
	c, _ := experiment.CaseByName("RAM")
	ts, err := experiment.GenerateTraces(c, 400, 1, testbench.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	flow, err := experiment.BuildModel(ts, experiment.DefaultPolicies())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildProfile(flow.Model, trace.NewFunctional(ts.FTs[0].Signals), ts.InputCols, 0.5); err == nil {
		t.Error("empty trace accepted")
	}

	// A model with no states has no positive-power state to classify
	// activity against; same for one whose states all sit at zero power.
	ft := trace.NewFunctional([]trace.Signal{{Name: "x", Width: 1}})
	ft.Append([]logic.Vector{logic.FromUint64(1, 0)})
	empty := &psm.Model{Initials: map[int]int{}}
	if _, err := BuildProfile(empty, ft, nil, 0.5); err == nil {
		t.Error("empty model accepted")
	}
	var zero stats.Moments
	zero.AddAll([]float64{0, 0, 0})
	dark := &psm.Model{States: []*psm.State{{ID: 0, Power: zero}}, Initials: map[int]int{0: 1}}
	if _, err := BuildProfile(dark, ft, nil, 0.5); err == nil {
		t.Error("model without a positive-power state accepted")
	}
}
