// Package hdl is a small cycle-based RTL simulation kernel. It plays the
// role of the Verilog/SystemC simulators in the paper's flow: IP cores are
// bit- and cycle-accurate Go models that expose primary inputs and outputs
// as fixed-width bit vectors and advance one clock cycle at a time.
//
// The kernel is deliberately minimal — a synchronous single-clock model —
// because the PSM methodology only ever observes the PI/PO valuation at
// each simulation instant. What the kernel adds over a plain function call
// is the bookkeeping a power model needs: every registered state element
// (Reg) records its switching activity per cycle, and supports clock
// gating, so a gate-level-style power estimator (package power) can charge
// clock-tree and data toggles per cell.
package hdl

import (
	"fmt"
	"sort"

	"psmkit/internal/logic"
)

// PortDir distinguishes primary inputs from primary outputs.
type PortDir int

const (
	// In marks a primary input port.
	In PortDir = iota
	// Out marks a primary output port.
	Out
)

func (d PortDir) String() string {
	if d == In {
		return "in"
	}
	return "out"
}

// PortSpec describes one primary input or output of a core.
type PortSpec struct {
	Name  string
	Width int
	Dir   PortDir
}

// Values maps port names to their bit-vector valuations at one simulation
// instant.
type Values map[string]logic.Vector

// Clone returns a deep copy of v.
func (v Values) Clone() Values {
	out := make(Values, len(v))
	for k, x := range v {
		out[k] = x.Clone()
	}
	return out
}

// Core is a cycle-accurate RTL model of an IP. Implementations live in
// package ip; users can provide their own cores to characterize custom IPs.
//
// The contract: Reset puts all state elements in their power-on value;
// Step consumes the primary-input valuation of the current clock cycle and
// returns the primary-output valuation after the clock edge. Step must
// write state only through Reg so switching activity is observable.
type Core interface {
	// Name returns a short identifier for the IP (used in reports).
	Name() string
	// Ports lists the primary inputs and outputs.
	Ports() []PortSpec
	// Reset re-initializes all state elements.
	Reset()
	// Step advances one clock cycle.
	Step(in Values) Values
	// Elements returns the design's registered state elements and tracked
	// internal nets, for power accounting.
	Elements() []*Reg
}

// Probed is implemented by cores that expose internal subcomponent-
// boundary signals in addition to their primary inputs and outputs. The
// hierarchical PSM extension (the future work of Section VII of the
// paper) mines per-subcomponent power models against these observables —
// exactly the "visibility on internal signals connecting the
// subcomponents" the paper says flat PI/PO-level PSMs lack.
type Probed interface {
	Core
	// Probes lists the internal observables (direction is ignored).
	Probes() []PortSpec
	// ProbeValues returns the probes' valuation after the current cycle.
	ProbeValues() Values
}

// Reg is a registered state element (or a tracked internal net) of a core.
// Writes go through Set so the kernel can observe per-cycle switching
// activity; the power estimator binds every element to a ToggleBank and
// drains the activity there once per cycle.
type Reg struct {
	name string
	// Memory reports whether the element is a memory element (flip-flop /
	// RAM bit) as opposed to a tracked combinational net. Only memory
	// elements count toward the design's "memory elements" size metric and
	// draw clock power.
	memory bool
	// gated marks the element's clock as gated for the current cycle:
	// a gated element draws no clock power. Data toggles are still charged
	// (a gated register normally has none, but tracked nets may).
	gated bool

	val     logic.Vector
	resetTo logic.Vector
	toggles int

	// When bound to a ToggleBank, activity is published to the bank's
	// columns at slot bankID and the fields above act as read-through
	// accessors only (toggles stays 0; gated mirrors the bank's plane).
	bank   *ToggleBank
	bankID int
}

// NewReg returns a memory element of the given width, reset to zero.
func NewReg(name string, width int) *Reg {
	v := logic.New(width)
	return &Reg{name: name, memory: true, val: v, resetTo: v}
}

// NewNet returns a tracked combinational net of the given width. Nets
// contribute data-toggle power but no clock power and do not count as
// memory elements.
func NewNet(name string, width int) *Reg {
	r := NewReg(name, width)
	r.memory = false
	return r
}

// Name returns the element's hierarchical name.
func (r *Reg) Name() string { return r.name }

// Width returns the element's width in bits.
func (r *Reg) Width() int { return r.val.Width() }

// IsMemory reports whether the element is a memory element.
func (r *Reg) IsMemory() bool { return r.memory }

// Get returns the element's current value.
func (r *Reg) Get() logic.Vector { return r.val }

// Set writes a new value, accumulating the Hamming distance between the
// old and new values into the cycle's toggle counter. Writing a register
// more than once per cycle accumulates activity, which models glitching on
// the tracked net.
func (r *Reg) Set(v logic.Vector) {
	if hd := r.val.HammingDistance(v); hd != 0 {
		if r.bank != nil {
			r.bank.add(r.bankID, hd)
		} else {
			r.toggles += hd
		}
	}
	r.val = v.Clone()
}

// SetUint64 writes v truncated to the element's width.
func (r *Reg) SetUint64(v uint64) {
	r.Set(logic.FromUint64(r.val.Width(), v))
}

// Gate marks the element's clock as gated (g = true) or active for the
// current cycle. Gating is re-evaluated by the core every cycle.
func (r *Reg) Gate(g bool) {
	if r.bank != nil {
		r.bank.gate(r.bankID, g)
		return
	}
	r.gated = g
}

// Reset restores the power-on value without charging toggles.
func (r *Reg) Reset() {
	r.val = r.resetTo.Clone()
	if r.bank != nil {
		r.bank.clear(r.bankID)
	} else {
		r.toggles = 0
		r.gated = false
	}
}

// MemoryBits returns the total number of memory-element bits of a core —
// the "memory elements" metric of the paper's Table I.
func MemoryBits(c Core) int {
	n := 0
	for _, r := range c.Elements() {
		if r.IsMemory() {
			n += r.Width()
		}
	}
	return n
}

// PortWidths sums the widths of a core's ports in the given direction —
// the "PIs"/"POs" metrics of the paper's Table I.
func PortWidths(c Core, dir PortDir) int {
	n := 0
	for _, p := range c.Ports() {
		if p.Dir == dir {
			n += p.Width
		}
	}
	return n
}

// Simulator drives a Core cycle by cycle, validating port valuations and
// notifying observers. It is the functional-simulation entry point used by
// trace generation and by the IP+PSM co-simulation.
type Simulator struct {
	core      Core
	inPorts   []PortSpec
	outPorts  []PortSpec
	cycle     int
	observers []Observer
}

// Observer is called after every simulated cycle with the cycle index and
// the input/output valuations. Observers must not retain the maps (clone
// if needed); vectors are immutable and safe to retain.
type Observer func(cycle int, in, out Values)

// NewSimulator returns a Simulator for the core, resetting it first.
func NewSimulator(core Core) *Simulator {
	s := &Simulator{core: core}
	for _, p := range core.Ports() {
		if p.Width <= 0 {
			panic(fmt.Sprintf("hdl: port %q of %q has width %d", p.Name, core.Name(), p.Width))
		}
		if p.Dir == In {
			s.inPorts = append(s.inPorts, p)
		} else {
			s.outPorts = append(s.outPorts, p)
		}
	}
	core.Reset()
	return s
}

// Cycle returns the number of cycles simulated so far.
func (s *Simulator) Cycle() int { return s.cycle }

// Observe registers an observer for subsequent cycles.
func (s *Simulator) Observe(o Observer) { s.observers = append(s.observers, o) }

// Step validates the input valuation, advances the core one cycle, and
// returns the validated output valuation.
func (s *Simulator) Step(in Values) (Values, error) {
	for _, p := range s.inPorts {
		v, ok := in[p.Name]
		if !ok {
			return nil, fmt.Errorf("hdl: %s cycle %d: missing input %q", s.core.Name(), s.cycle, p.Name)
		}
		if v.Width() != p.Width {
			return nil, fmt.Errorf("hdl: %s cycle %d: input %q width %d, want %d",
				s.core.Name(), s.cycle, p.Name, v.Width(), p.Width)
		}
	}
	out := s.core.Step(in)
	for _, p := range s.outPorts {
		v, ok := out[p.Name]
		if !ok {
			return nil, fmt.Errorf("hdl: %s cycle %d: core did not drive output %q", s.core.Name(), s.cycle, p.Name)
		}
		if v.Width() != p.Width {
			return nil, fmt.Errorf("hdl: %s cycle %d: output %q width %d, want %d",
				s.core.Name(), s.cycle, p.Name, v.Width(), p.Width)
		}
	}
	for _, o := range s.observers {
		o(s.cycle, in, out)
	}
	s.cycle++
	return out, nil
}

// MustStep is Step for tests and examples where a port mismatch is a
// programming error.
func (s *Simulator) MustStep(in Values) Values {
	out, err := s.Step(in)
	if err != nil {
		panic(err)
	}
	return out
}

// SortedPortNames returns the core's port names in a stable order: inputs
// first, then outputs, each alphabetical. Trace columns use this order so
// serialized traces are deterministic.
func SortedPortNames(c Core) []string {
	var ins, outs []string
	for _, p := range c.Ports() {
		if p.Dir == In {
			ins = append(ins, p.Name)
		} else {
			outs = append(outs, p.Name)
		}
	}
	sort.Strings(ins)
	sort.Strings(outs)
	return append(ins, outs...)
}
