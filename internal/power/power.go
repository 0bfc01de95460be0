// Package power is psmkit's stand-in for a gate-level power simulator
// (Synopsys PrimeTime PX in the paper). It produces the *reference dynamic
// power traces* the PSM flow calibrates against.
//
// The model follows the paper's Definition 2: the dynamic energy consumed
// at simulation instant t is
//
//	δ(t) = ½ · V²dd · f · C · α(t)
//
// where α(t) is the design's switching activity. The estimator charges,
// per cycle:
//
//   - data power: every bit toggle of every registered state element and
//     tracked net, weighted by a per-element cell capacitance;
//   - clock power: the clock pin of every memory element whose clock is
//     not gated this cycle;
//   - I/O power: toggles on the primary input/output boundary nets.
//
// Cell capacitances are "synthesized" at elaboration time: each element
// gets a deterministic per-instance drive-strength factor derived from its
// name, mimicking the cell-sizing spread of a synthesized netlist. A small
// deterministic measurement jitter is added per cycle so reference traces
// exhibit the σ > 0 that real gate-level power reports show.
//
// Estimator binds the core's elements to an hdl.ToggleBank and consumes
// a cycle's activity by scanning the bank's packed bit planes —
// untouched, gated words are skipped 64 elements per compare — with
// boundary I/O diffed through index-stable pre-bound vector slots
// instead of cloned maps. The package's tests keep the historical
// per-element scalar walk as the differential oracle: both kernels
// visit charged elements in the same index order and perform the same
// float operations, so their traces are bit-identical
// (zero-contribution elements the columnar kernel skips would have
// added exactly 0.0, the IEEE-754 additive identity for the
// non-negative sums involved).
package power

import (
	"math/bits"
	"strings"
	"time"

	"psmkit/internal/hdl"
	"psmkit/internal/logic"
)

// Config holds the electrical parameters of the power model.
type Config struct {
	// VDD is the supply voltage in volts.
	VDD float64
	// ClockHz is the clock frequency in hertz.
	ClockHz float64
	// DataCapF is the nominal switched capacitance per data bit toggle, in
	// farads.
	DataCapF float64
	// ClockCapF is the clock-pin capacitance per memory-element bit, in
	// farads, charged every un-gated cycle.
	ClockCapF float64
	// IOCapF is the boundary-net capacitance per PI/PO bit toggle, in
	// farads.
	IOCapF float64
	// NoiseAmp is the relative amplitude of the deterministic measurement
	// jitter (0.01 = ±1%).
	NoiseAmp float64
	// Seed selects the jitter stream.
	Seed uint64
}

// DefaultConfig returns the parameters used throughout the paper
// reproduction: a 50 MHz, 1.1 V operating point with ~fF-scale cells.
func DefaultConfig() Config {
	return Config{
		VDD:       1.1,
		ClockHz:   50e6,
		DataCapF:  1.8e-15,
		ClockCapF: 0.9e-15,
		IOCapF:    3.5e-15,
		NoiseAmp:  0.005,
		Seed:      0x9e3779b97f4a7c15,
	}
}

// IOGroup is the reserved subcomponent name for boundary I/O power when a
// classifier is installed.
const IOGroup = "io"

// elaborateCaps assigns the per-instance data and clock capacitances —
// the deterministic "synthesis" both kernels must agree on exactly.
func elaborateCaps(elems []*hdl.Reg, cfg Config) (dataCap, clockCap []float64) {
	dataCap = make([]float64, len(elems))
	clockCap = make([]float64, len(elems))
	for i, r := range elems {
		// Deterministic per-instance drive-strength spread in [0.8, 1.2],
		// like the cell sizing a synthesis tool would pick. Array
		// elements (names differing only in their index) share one
		// factor: the slices of a memory array or register file are
		// physically identical cells.
		f := 0.8 + 0.4*unit(hashName(baseName(r.Name())))
		dataCap[i] = cfg.DataCapF * f
		if r.IsMemory() {
			clockCap[i] = cfg.ClockCapF * f * float64(r.Width())
		}
	}
	return dataCap, clockCap
}

// classify interns a group id per element plus the reserved I/O group.
func classify(elems []*hdl.Reg, groupFor func(string) string) (groupOf []int, names []string, ioGroup int) {
	index := map[string]int{}
	intern := func(name string) int {
		if i, ok := index[name]; ok {
			return i
		}
		index[name] = len(names)
		names = append(names, name)
		return len(names) - 1
	}
	groupOf = make([]int, len(elems))
	for i, r := range elems {
		groupOf[i] = intern(groupFor(r.Name()))
	}
	ioGroup = intern(IOGroup)
	return groupOf, names, ioGroup
}

func groupTraceByName(names []string, traces [][]float64, name string) []float64 {
	for i, n := range names {
		if n == name {
			return traces[i]
		}
	}
	return nil
}

// boundary is one direction's pre-bound I/O history: one slot per
// declared port, resolved once at elaboration. Slots hold the previous
// cycle's vectors by reference — logic.Vector is immutable through its
// exported API, so retaining the caller's values is safe and clone-free —
// and validity is tracked explicitly, which makes the history's ownership
// unambiguous: the estimator never retains the caller's Values map, and
// Reset severs every reference it holds.
type boundary struct {
	names []string
	prev  []logic.Vector
	ok    []bool
	armed bool // false until the first cycle has populated the slots
}

func newBoundary(ports []hdl.PortSpec, dir hdl.PortDir) *boundary {
	b := &boundary{}
	for _, p := range ports {
		if p.Dir == dir {
			b.names = append(b.names, p.Name)
		}
	}
	b.prev = make([]logic.Vector, len(b.names))
	b.ok = make([]bool, len(b.names))
	return b
}

// toggles returns the Hamming distance between the previous and current
// valuations over the declared ports, then retains cur's vectors as the
// new history. The first call after reset charges nothing (no history).
func (b *boundary) toggles(cur hdl.Values) int {
	n := 0
	for i, name := range b.names {
		v, ok := cur[name]
		if ok && b.armed && b.ok[i] {
			n += b.prev[i].HammingDistance(v)
		}
		b.prev[i], b.ok[i] = v, ok
	}
	b.armed = true
	return n
}

// Estimator computes per-cycle dynamic power for one core over columnar
// activity state. Create it with NewEstimator after the core is
// constructed — this binds the core's elements to a fresh
// hdl.ToggleBank, so one core supports exactly one Estimator — attach it
// to the simulation via Observer (or call CyclePower manually after
// every Step), and read the accumulated trace from Trace.
//
// Boundary accounting covers the core's declared ports; the historical
// kernel diffed whatever keys two consecutive Values maps shared, which
// is the same set for any simulator-driven core.
type Estimator struct {
	cfg   Config
	elems []*hdl.Reg
	bank  *hdl.ToggleBank
	// dataCap[i] is the per-toggle capacitance of elems[i]; clockCap[i] is
	// its total clock-pin capacitance (0 for nets).
	dataCap  []float64
	clockCap []float64
	// clocked is the plane of elements with clockCap != 0: the only ones
	// whose un-gated cycles charge anything. Un-gated nets contribute an
	// exact 0.0 and are skipped.
	clocked []uint64
	ioCap   float64
	scale   float64 // ½·V²·f

	in, out *boundary

	rng      uint64
	trace    []float64
	elabTime time.Duration
	started  bool

	// Per-subcomponent accounting (hierarchical PSM extension): when a
	// classifier is installed, every element belongs to a group and the
	// estimator additionally records one power trace per group. Boundary
	// I/O power goes to the reserved group "io".
	groupOf     []int
	groupNames  []string
	groupTraces [][]float64
	ioGroup     int
	groupAccum  []float64
}

// NewEstimator elaborates the power model of a core: it enumerates the
// design's state elements, assigns per-instance cell capacitances, and
// binds the elements to a columnar toggle bank. This is psmkit's
// analogue of the gate-level synthesis step that Table I of the paper
// reports as "Syn. time".
func NewEstimator(core hdl.Core, cfg Config) *Estimator {
	start := time.Now()
	e := &Estimator{
		cfg:   cfg,
		elems: core.Elements(),
		ioCap: cfg.IOCapF,
		scale: 0.5 * cfg.VDD * cfg.VDD * cfg.ClockHz,
		rng:   cfg.Seed ^ hashName(core.Name()),
	}
	e.dataCap, e.clockCap = elaborateCaps(e.elems, cfg)
	e.bank = hdl.NewToggleBank(e.elems)
	e.clocked = make([]uint64, e.bank.Words())
	for i := range e.elems {
		if e.clockCap[i] != 0 {
			e.clocked[i/64] |= 1 << uint(i%64)
		}
	}
	ports := core.Ports()
	e.in = newBoundary(ports, hdl.In)
	e.out = newBoundary(ports, hdl.Out)
	e.elabTime = time.Since(start)
	return e
}

// ElaborationTime returns how long the power-model build took.
func (e *Estimator) ElaborationTime() time.Duration { return e.elabTime }

// Classify installs a subcomponent classifier: every element name maps to
// a group, and the estimator records a separate power trace per group on
// top of the total. Boundary I/O power is booked under the reserved group
// IOGroup. It must be called before the first cycle and panics otherwise:
// group traces started mid-run would silently miss the cycles already
// recorded and desynchronize from the total.
func (e *Estimator) Classify(groupFor func(elementName string) string) {
	if e.started {
		panic("power: Classify after the first cycle")
	}
	e.groupOf, e.groupNames, e.ioGroup = classify(e.elems, groupFor)
	e.groupTraces = make([][]float64, len(e.groupNames))
	e.groupAccum = make([]float64, len(e.groupNames))
}

// Groups returns the group names (empty without a classifier).
func (e *Estimator) Groups() []string { return e.groupNames }

// GroupTrace returns the recorded power trace of a group, or nil.
func (e *Estimator) GroupTrace(name string) []float64 {
	return groupTraceByName(e.groupNames, e.groupTraces, name)
}

// CyclePower returns the dynamic power (in watts) consumed during the
// cycle that just executed, given its boundary valuations. It must be
// called exactly once per Step, in order.
//
// The kernel is a word scan over the bank's planes: a word contributes
// only where an element toggled (touched plane) or holds an un-gated
// clock pin (clocked &^ gated), so a quiescent, clock-gated word of 64
// elements costs one compare. Charged elements are visited in ascending
// index order with the reference kernel's exact float operations.
func (e *Estimator) CyclePower(in, out hdl.Values) float64 {
	e.started = true
	var c float64
	grouped := e.groupOf != nil
	touched := e.bank.TouchedPlane()
	gatedPlane := e.bank.GatedPlane()
	for w, tw := range touched {
		cmask := e.clocked[w] &^ gatedPlane[w]
		act := tw | cmask
		if act == 0 {
			continue
		}
		base := w * 64
		for act != 0 {
			bit := uint(bits.TrailingZeros64(act))
			act &= act - 1
			i := base + int(bit)
			var ec float64
			if tw&(1<<bit) != 0 {
				if t := e.bank.DrainSlot(i); t != 0 {
					ec += float64(t) * e.dataCap[i]
				}
			}
			if cmask&(1<<bit) != 0 {
				ec += e.clockCap[i]
			}
			c += ec
			if grouped {
				e.groupAccum[e.groupOf[i]] += ec
			}
		}
		if tw != 0 {
			e.bank.ClearTouchedWord(w)
		}
	}
	// Boundary I/O power over the pre-bound port slots.
	io := float64(e.in.toggles(in)) * e.ioCap
	io += float64(e.out.toggles(out)) * e.ioCap
	c += io
	if grouped {
		e.groupAccum[e.ioGroup] += io
	}

	// Deterministic measurement jitter, applied uniformly per cycle.
	jitter := 1.0
	if e.cfg.NoiseAmp > 0 {
		e.rng = xorshift(e.rng)
		jitter = 1 + e.cfg.NoiseAmp*(2*unit(e.rng)-1)
	}
	if grouped {
		// The grouped total is defined as the sum of the per-group cycle
		// values in group-id order, so the group traces sum to the total
		// at exactly 0 ULP — the uniform-jitter contract the invariant
		// suite pins. (Summing the raw element chain instead would drift
		// a few ULPs from the regrouped per-group sums.)
		var total float64
		for g := range e.groupAccum {
			v := e.scale * e.groupAccum[g] * jitter
			e.groupTraces[g] = append(e.groupTraces[g], v)
			e.groupAccum[g] = 0
			total += v
		}
		return total
	}
	return e.scale * c * jitter
}

// Observer returns an hdl.Observer that computes the cycle power after
// every Step and appends it to the estimator's trace.
func (e *Estimator) Observer() hdl.Observer {
	return func(_ int, in, out hdl.Values) {
		e.trace = append(e.trace, e.CyclePower(in, out))
	}
}

// Trace returns the power values recorded so far (watts per cycle).
func (e *Estimator) Trace() []float64 { return e.trace }

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	if x == 0 {
		return 0x2545f4914f6cdd1d
	}
	return x
}

// unit maps a 64-bit state to [0, 1).
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// baseName strips a trailing "[index]" so array slices share an identity.
func baseName(s string) string {
	if i := strings.IndexByte(s, '['); i >= 0 {
		return s[:i]
	}
	return s
}

func hashName(s string) uint64 {
	// FNV-1a
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	if h == 0 {
		h = 1
	}
	return h
}
