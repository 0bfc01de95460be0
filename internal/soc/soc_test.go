package soc

import (
	"math"
	"testing"

	"psmkit/internal/experiment"
	"psmkit/internal/testbench"
)

// buildComponent trains a PSM for the named IP and wires a component.
func buildComponent(t *testing.T, name string, train int, seed int64) *Component {
	t.Helper()
	c, err := experiment.CaseByName(name)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := experiment.GenerateTraces(c, train, experiment.Pieces, testbench.Options{Seed: c.Seed})
	if err != nil {
		t.Fatal(err)
	}
	flow, err := experiment.BuildModel(ts, experiment.DefaultPolicies())
	if err != nil {
		t.Fatal(err)
	}
	core := c.New()
	gen, err := testbench.For(core, testbench.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return NewComponent(name, core, gen, flow.Model, ts.InputCols)
}

func twoIPSystem(t *testing.T) *System {
	t.Helper()
	sys := New(20e-9, 0)
	sys.Add(buildComponent(t, "RAM", 4000, 101))
	sys.Add(buildComponent(t, "MultSum", 3000, 202))
	return sys
}

func TestSystemStepsAllComponents(t *testing.T) {
	sys := twoIPSystem(t)
	if err := sys.Run(2000); err != nil {
		t.Fatal(err)
	}
	if sys.cycle != 2000 {
		t.Errorf("cycles = %d", sys.cycle)
	}
	for _, c := range sys.Components() {
		if c.energyJ <= 0 {
			t.Errorf("%s accumulated no energy", c.Name)
		}
	}
}

func TestTotalIsSumOfComponents(t *testing.T) {
	sys := twoIPSystem(t)
	for i := 0; i < 500; i++ {
		total, err := sys.Step()
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, c := range sys.Components() {
			sum += c.lastW
		}
		if math.Abs(total-sum) > 1e-18 {
			t.Fatalf("cycle %d: total %g != Σ %g", i, total, sum)
		}
	}
}

func TestReportAccounting(t *testing.T) {
	sys := twoIPSystem(t)
	if err := sys.Run(3000); err != nil {
		t.Fatal(err)
	}
	r := sys.Report()
	if r.Cycles != 3000 {
		t.Errorf("cycles = %d", r.Cycles)
	}
	var sum, shares float64
	for _, b := range r.Breakdown {
		sum += b.EnergyJ
		shares += b.Share
	}
	if math.Abs(sum-r.TotalEnergyJ) > 1e-18 {
		t.Errorf("breakdown sums to %g, total %g", sum, r.TotalEnergyJ)
	}
	if math.Abs(shares-1) > 1e-12 {
		t.Errorf("shares sum to %g", shares)
	}
	// Breakdown sorted descending.
	for i := 1; i < len(r.Breakdown); i++ {
		if r.Breakdown[i].EnergyJ > r.Breakdown[i-1].EnergyJ {
			t.Error("breakdown not sorted")
		}
	}
	// Average power consistency: E = P̄ · t.
	wantAvg := r.TotalEnergyJ / (float64(r.Cycles) * sys.CycleSeconds)
	if math.Abs(r.AvgPowerW-wantAvg) > 1e-18 {
		t.Errorf("avg power %g, want %g", r.AvgPowerW, wantAvg)
	}
	if r.PeakPowerW < r.AvgPowerW {
		t.Errorf("peak %g below average %g", r.PeakPowerW, r.AvgPowerW)
	}
	if r.PeakCycle < 0 || r.PeakCycle >= r.Cycles {
		t.Errorf("peak cycle = %d", r.PeakCycle)
	}
}

func TestBudgetAccounting(t *testing.T) {
	// Budget between average and peak: some cycles must exceed it.
	probe := twoIPSystem(t)
	if err := probe.Run(2000); err != nil {
		t.Fatal(err)
	}
	pr := probe.Report()
	budget := (pr.AvgPowerW + pr.PeakPowerW) / 2

	sys := twoIPSystem(t)
	sys.budgetW = budget
	if err := sys.Run(2000); err != nil {
		t.Fatal(err)
	}
	r := sys.Report()
	if r.OverBudgetCycles <= 0 || r.OverBudgetCycles >= r.Cycles {
		t.Errorf("over-budget cycles = %d of %d", r.OverBudgetCycles, r.Cycles)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a := twoIPSystem(t)
	b := twoIPSystem(t)
	for i := 0; i < 500; i++ {
		ta, err := a.Step()
		if err != nil {
			t.Fatal(err)
		}
		tb, err := b.Step()
		if err != nil {
			t.Fatal(err)
		}
		if ta != tb {
			t.Fatalf("cycle %d diverged: %g vs %g", i, ta, tb)
		}
	}
}

func TestEmptySystemReport(t *testing.T) {
	sys := New(20e-9, 0)
	if err := sys.Run(10); err != nil {
		t.Fatal(err)
	}
	r := sys.Report()
	if r.TotalEnergyJ != 0 || len(r.Breakdown) != 0 {
		t.Errorf("empty system report: %+v", r)
	}
}
