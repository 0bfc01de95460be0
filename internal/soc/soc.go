// Package soc assembles the virtual prototype the paper's introduction
// targets: "PSMs are a well-known formalism to model and simulate the
// time-based energy consumption of IP cores for early virtual prototyping
// of system-on-chips". A System steps several IP cores cycle by cycle,
// each with its generated PSM tracking alongside, and aggregates
// per-component and chip-level power: instantaneous totals, per-component
// energy breakdown, and peak-power detection against a budget.
package soc

import (
	"fmt"
	"sort"

	"psmkit/internal/hdl"
	"psmkit/internal/logic"
	"psmkit/internal/powersim"
	"psmkit/internal/psm"
	"psmkit/internal/testbench"
)

// Component is one IP instance in the system: the functional core, its
// stimulus, and the PSM tracker estimating its power.
type Component struct {
	Name    string
	sim     *hdl.Simulator
	gen     testbench.Generator
	tracker *powersim.Simulator

	names []string
	row   []logic.Vector

	energyJ float64
	lastW   float64
}

// NewComponent wires a core, its stimulus generator and its PSM model
// into a steppable component. inputCols index the primary inputs in the
// model's trace schema.
func NewComponent(name string, core hdl.Core, gen testbench.Generator, model *psm.Model, inputCols []int) *Component {
	c := &Component{
		Name:    name,
		sim:     hdl.NewSimulator(core),
		gen:     gen,
		tracker: powersim.New(model, inputCols, powersim.DefaultConfig()),
		names:   hdl.SortedPortNames(core),
	}
	c.row = make([]logic.Vector, len(c.names))
	c.sim.Observe(func(_ int, in, out hdl.Values) {
		for i, n := range c.names {
			if v, ok := in[n]; ok {
				c.row[i] = v
			} else {
				c.row[i] = out[n]
			}
		}
		c.lastW = c.tracker.Step(c.row)
	})
	return c
}

// Tracker exposes the component's PSM tracker (for WSP inspection).
func (c *Component) Tracker() *powersim.Simulator { return c.tracker }

// System is a set of components stepped in lock-step on a common clock.
type System struct {
	CycleSeconds float64
	components   []*Component

	cycle      int
	peakW      float64
	peakCycle  int
	overBudget int
	budgetW    float64
}

// New creates a system with the given clock period. budgetW, when
// positive, arms peak-power accounting against the chip budget.
func New(cycleSeconds, budgetW float64) *System {
	return &System{CycleSeconds: cycleSeconds, budgetW: budgetW}
}

// Add registers a component.
func (s *System) Add(c *Component) { s.components = append(s.components, c) }

// Components returns the registered components.
func (s *System) Components() []*Component { return s.components }

// Step advances every component one clock cycle and returns the chip's
// total estimated power for the cycle.
func (s *System) Step() (float64, error) {
	var total float64
	for _, c := range s.components {
		if _, err := c.sim.Step(c.gen.Next()); err != nil {
			return 0, fmt.Errorf("soc: %s: %w", c.Name, err)
		}
		total += c.lastW
		c.energyJ += c.lastW * s.CycleSeconds
	}
	if total > s.peakW {
		s.peakW = total
		s.peakCycle = s.cycle
	}
	if s.budgetW > 0 && total > s.budgetW {
		s.overBudget++
	}
	s.cycle++
	return total, nil
}

// Run steps the system n cycles.
func (s *System) Run(n int) error {
	for i := 0; i < n; i++ {
		if _, err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Report summarizes a simulation.
type Report struct {
	Cycles       int
	TotalEnergyJ float64
	AvgPowerW    float64
	PeakPowerW   float64
	PeakCycle    int
	// OverBudgetCycles counts cycles whose total power exceeded the
	// budget (0 when no budget armed).
	OverBudgetCycles int
	// Breakdown is the per-component energy share, sorted descending.
	Breakdown []ComponentShare
}

// ComponentShare is one row of the energy breakdown.
type ComponentShare struct {
	Name    string
	EnergyJ float64
	Share   float64
}

// Report aggregates the simulation so far.
func (s *System) Report() Report {
	r := Report{
		Cycles:           s.cycle,
		PeakPowerW:       s.peakW,
		PeakCycle:        s.peakCycle,
		OverBudgetCycles: s.overBudget,
	}
	for _, c := range s.components {
		r.TotalEnergyJ += c.energyJ
	}
	for _, c := range s.components {
		share := 0.0
		if r.TotalEnergyJ > 0 {
			share = c.energyJ / r.TotalEnergyJ
		}
		r.Breakdown = append(r.Breakdown, ComponentShare{Name: c.Name, EnergyJ: c.energyJ, Share: share})
	}
	sort.Slice(r.Breakdown, func(i, j int) bool { return r.Breakdown[i].EnergyJ > r.Breakdown[j].EnergyJ })
	if s.cycle > 0 && s.CycleSeconds > 0 {
		r.AvgPowerW = r.TotalEnergyJ / (float64(s.cycle) * s.CycleSeconds)
	}
	return r
}
