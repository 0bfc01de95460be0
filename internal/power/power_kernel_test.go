package power

import (
	"fmt"
	"os"
	"testing"
	"time"

	"psmkit/internal/hdl"
	"psmkit/internal/logic"
)

// ReferenceEstimator is the historical scalar power kernel, retained
// verbatim as the test oracle of the columnar Estimator (the restart
// scan plays the same role for the worklist join engine in
// internal/psm): it walks every element of the design every cycle
// through the per-Reg accessors and keeps its boundary history as
// cloned Values maps. Element order, float operation order and the
// jitter stream are exactly the Estimator's, so for any core and
// stimulus the two kernels must produce bit-identical total and
// per-group traces — pinned by TestColumnarMatchesReference, and timed
// against the Estimator by TestPowerKernelGate.
type ReferenceEstimator struct {
	cfg      Config
	core     hdl.Core
	elems    []*hdl.Reg
	dataCap  []float64
	clockCap []float64
	ioCap    float64
	scale    float64

	prevIn  map[string]logic.Vector
	prevOut map[string]logic.Vector

	rng     uint64
	trace   []float64
	started bool

	groupOf     []int
	groupNames  []string
	groupTraces [][]float64
	ioGroup     int
	groupAccum  []float64
}

// NewReferenceEstimator elaborates the scalar power model of a core with
// exactly the Estimator's per-instance cell capacitances.
func NewReferenceEstimator(core hdl.Core, cfg Config) *ReferenceEstimator {
	e := &ReferenceEstimator{
		cfg:   cfg,
		core:  core,
		elems: core.Elements(),
		ioCap: cfg.IOCapF,
		scale: 0.5 * cfg.VDD * cfg.VDD * cfg.ClockHz,
		rng:   cfg.Seed ^ hashName(core.Name()),
	}
	e.dataCap, e.clockCap = elaborateCaps(e.elems, cfg)
	return e
}

// Classify installs a subcomponent classifier (see Estimator.Classify).
// It panics after the first cycle: group traces would silently miss the
// cycles already recorded.
func (e *ReferenceEstimator) Classify(groupFor func(elementName string) string) {
	if e.started {
		panic("power: Classify after the first cycle")
	}
	e.groupOf, e.groupNames, e.ioGroup = classify(e.elems, groupFor)
	e.groupTraces = make([][]float64, len(e.groupNames))
	e.groupAccum = make([]float64, len(e.groupNames))
}

// Groups returns the group names (empty without a classifier).
func (e *ReferenceEstimator) Groups() []string { return e.groupNames }

// GroupTrace returns the recorded power trace of a group, or nil.
func (e *ReferenceEstimator) GroupTrace(name string) []float64 {
	return groupTraceByName(e.groupNames, e.groupTraces, name)
}

// Reset clears the boundary history, the jitter stream and the recorded
// traces.
func (e *ReferenceEstimator) Reset() {
	e.prevIn, e.prevOut = nil, nil
	e.rng = e.cfg.Seed ^ hashName(e.core.Name())
	e.trace = nil
	e.started = false
	for i := range e.groupTraces {
		e.groupTraces[i] = nil
	}
	for i := range e.groupAccum {
		e.groupAccum[i] = 0
	}
}

// CyclePower is the historical per-element walk: one TakeToggles/Gated
// round trip per element per cycle, plus a full clone of both boundary
// maps.
func (e *ReferenceEstimator) CyclePower(in, out hdl.Values) float64 {
	e.started = true
	var c float64
	grouped := e.groupOf != nil
	for i, r := range e.elems {
		var ec float64
		if t := r.TakeToggles(); t != 0 {
			ec += float64(t) * e.dataCap[i]
		}
		if !r.Gated() {
			ec += e.clockCap[i]
		}
		c += ec
		if grouped {
			e.groupAccum[e.groupOf[i]] += ec
		}
	}
	io := float64(boundaryToggles(e.prevIn, in)) * e.ioCap
	io += float64(boundaryToggles(e.prevOut, out)) * e.ioCap
	c += io
	if grouped {
		e.groupAccum[e.ioGroup] += io
	}
	e.prevIn, e.prevOut = in.Clone(), out.Clone()

	jitter := 1.0
	if e.cfg.NoiseAmp > 0 {
		e.rng = xorshift(e.rng)
		jitter = 1 + e.cfg.NoiseAmp*(2*unit(e.rng)-1)
	}
	if grouped {
		// Grouped totals follow the uniform-jitter contract (see
		// Estimator.CyclePower): the total is the group values' sum in
		// group-id order, exact at 0 ULP.
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

// Observer returns an hdl.Observer that records the cycle power.
func (e *ReferenceEstimator) Observer() hdl.Observer {
	return func(_ int, in, out hdl.Values) {
		e.trace = append(e.trace, e.CyclePower(in, out))
	}
}

// Trace returns the power values recorded so far (watts per cycle).
func (e *ReferenceEstimator) Trace() []float64 { return e.trace }

func boundaryToggles(prev map[string]logic.Vector, cur hdl.Values) int {
	if prev == nil {
		return 0
	}
	n := 0
	for name, v := range cur {
		if p, ok := prev[name]; ok {
			n += p.HammingDistance(v)
		}
	}
	return n
}

// The power-kernel scaling workload: a banked register file where
// exactly one bank is powered per cycle and the rest sit clock-gated.
// The per-cycle work a power kernel *needs* to do is proportional to
// one bank; the scalar ReferenceEstimator walk still visits every
// element of every bank, while the columnar Estimator's word-scan skips
// quiescent gated words with one compare each.
const (
	// bankRegWidth is the width of every register in the file.
	bankRegWidth = 32
	// bankPatterns is the size of the precomputed write-value table;
	// Step costs O(bankWrites) with no allocation so the kernels
	// dominate the replay loop.
	bankPatterns = 16
	// bankWrites is how many registers of the powered bank Step writes
	// per cycle (a rotating window), keeping the stimulus side cheap
	// relative to the per-cycle power reduction being measured.
	bankWrites = 8
	// bankDwell is how many cycles bankStimulus holds each bank
	// selection, so gate/ungate migration stays off the critical path.
	bankDwell = 16
)

// bankedFile is the banked register file. It implements hdl.Core.
type bankedFile struct {
	banks   int
	perBank int
	regs    []*hdl.Reg
	vals    [bankPatterns]logic.Vector
	cur     int
	cycle   int
}

// newBankedFile builds a file of banks x perBank registers. Bank 0 is
// powered; every other bank starts clock-gated (the estimator's bank
// migration picks that pre-bind state up, like the RAM's constructor
// gating).
func newBankedFile(banks, perBank int) *bankedFile {
	c := &bankedFile{banks: banks, perBank: perBank}
	c.regs = make([]*hdl.Reg, 0, banks*perBank)
	for b := 0; b < banks; b++ {
		for r := 0; r < perBank; r++ {
			reg := hdl.NewReg(fmt.Sprintf("bank%03d.r%03d", b, r), bankRegWidth)
			if b != 0 {
				reg.Gate(true)
			}
			c.regs = append(c.regs, reg)
		}
	}
	rng := uint64(0x243f6a8885a308d3)
	for i := range c.vals {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		c.vals[i] = logic.FromUint64(bankRegWidth, rng)
	}
	return c
}

// Name implements hdl.Core.
func (c *bankedFile) Name() string { return "powerbench" }

// Ports implements hdl.Core.
func (c *bankedFile) Ports() []hdl.PortSpec {
	return []hdl.PortSpec{
		{Name: "sel", Width: 16, Dir: hdl.In},
		{Name: "busy", Width: bankRegWidth, Dir: hdl.Out},
	}
}

// Reset implements hdl.Core: back to bank 0 powered, everything cleared.
func (c *bankedFile) Reset() {
	for i, r := range c.regs {
		r.Reset()
		if i >= c.perBank {
			r.Gate(true)
		}
	}
	c.cur = 0
	c.cycle = 0
}

// Step powers the selected bank (gating the previously active one when
// the selection moves) and writes a rotating pattern into a rotating
// window of its registers. Cost is O(bankWrites), independent of the
// total element count.
func (c *bankedFile) Step(in hdl.Values) hdl.Values {
	sel := 0
	if v, ok := in["sel"]; ok {
		sel = int(v.Uint64() % uint64(c.banks))
	}
	if sel != c.cur {
		for _, r := range c.bank(c.cur) {
			r.Gate(true)
		}
		for _, r := range c.bank(sel) {
			r.Gate(false)
		}
		c.cur = sel
	}
	active := c.bank(sel)
	n := bankWrites
	if n > c.perBank {
		n = c.perBank
	}
	for i := 0; i < n; i++ {
		active[(c.cycle*bankWrites+i)%c.perBank].Set(c.vals[(c.cycle+i)%bankPatterns])
	}
	c.cycle++
	return hdl.Values{"busy": c.vals[c.cycle%bankPatterns]}
}

// Elements implements hdl.Core.
func (c *bankedFile) Elements() []*hdl.Reg { return c.regs }

func (c *bankedFile) bank(b int) []*hdl.Reg {
	return c.regs[b*c.perBank : (b+1)*c.perBank]
}

// bankStimulus returns the deterministic n-cycle input sequence of the
// benchmark: a seeded xorshift walk over the banks, with enough dwell
// time per selection that gating transitions do not dominate.
func bankStimulus(banks, n int, seed uint64) []hdl.Values {
	rng := seed | 1
	ins := make([]hdl.Values, n)
	sel := logic.FromUint64(16, 0)
	for t := 0; t < n; t++ {
		if t%bankDwell == 0 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			sel = logic.FromUint64(16, rng%uint64(banks))
		}
		ins[t] = hdl.Values{"sel": sel}
	}
	return ins
}

// powerArm replays the deterministic bankStimulus through one kernel
// on a fresh banked file, returning the replay wall time and the cycle
// trace. Only the Step+CyclePower loop is timed; core construction,
// estimator elaboration and stimulus synthesis are outside.
func powerArm(newEst func(hdl.Core, Config) estimator, banks, perBank, n int) (time.Duration, []float64) {
	core := newBankedFile(banks, perBank)
	est := newEst(core, DefaultConfig())
	ins := bankStimulus(banks, n, 0x9e3779b9)
	trace := make([]float64, n)
	start := time.Now()
	for t, in := range ins {
		trace[t] = est.CyclePower(in, core.Step(in))
	}
	return time.Since(start), trace
}

// BenchmarkPowerKernel reports the columnar kernel's per-op time on the
// 4096-element banked file, with the scalar walk's wall time and the
// resulting speedup as metrics.
func BenchmarkPowerKernel(b *testing.B) {
	const banks, perBank, n = 64, 64, 2000
	refTime, refTrace := powerArm(newReference, banks, perBank, n)

	var colTime time.Duration
	var colTrace []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		colTime, colTrace = powerArm(newColumnar, banks, perBank, n)
	}
	if cyc := firstDivergence(refTrace, colTrace); cyc >= 0 {
		b.Fatalf("kernels diverge at cycle %d", cyc)
	}
	b.ReportMetric(float64(refTime)/float64(colTime), "speedup_x")
	b.ReportMetric(float64(colTime.Nanoseconds())/float64(n), "ns_per_cycle")
}

// TestPowerKernelGate is the `make bench-power` regression gate for the
// columnar power kernel, on the 64x64 banked register file (4096
// elements, one bank powered per cycle):
//
//   - the columnar Estimator must be >=5x faster than the scalar
//     ReferenceEstimator walk (min over interleaved rounds);
//   - both kernels must produce bit-identical cycle traces (the
//     differential suite additionally pins group traces on the
//     benchmark IPs).
//
// Wall-clock gates are noisy, so the test only runs under BENCH_POWER=1
// (CI: `make bench-power`).
func TestPowerKernelGate(t *testing.T) {
	if os.Getenv("BENCH_POWER") == "" {
		t.Skip("set BENCH_POWER=1 (or run `make bench-power`) to run the power kernel gate")
	}
	const banks, perBank, n = 64, 64, 3000

	powerArm(newReference, banks, perBank, n) // warm both arms before timing
	powerArm(newColumnar, banks, perBank, n)
	const rounds = 3
	minRef, minCol := time.Duration(1<<62), time.Duration(1<<62)
	var refTrace, colTrace []float64
	for i := 0; i < rounds; i++ {
		var d time.Duration
		if d, refTrace = powerArm(newReference, banks, perBank, n); d < minRef {
			minRef = d
		}
		if d, colTrace = powerArm(newColumnar, banks, perBank, n); d < minCol {
			minCol = d
		}
	}

	if cyc := firstDivergence(refTrace, colTrace); cyc >= 0 {
		t.Fatalf("kernels diverge at cycle %d: %v vs %v", cyc, refTrace[cyc], colTrace[cyc])
	}
	speedup := float64(minRef) / float64(minCol)
	t.Logf("reference %v, columnar %v over %d cycles x %d elements, speedup %.1fx",
		minRef, minCol, n, banks*perBank, speedup)
	if speedup < 5 {
		t.Fatalf("columnar speedup %.1fx over the scalar walk (min over %d rounds: %v vs %v); gate is 5x",
			speedup, rounds, minCol, minRef)
	}
}
