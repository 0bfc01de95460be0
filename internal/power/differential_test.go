package power

import (
	"math"
	"testing"

	"psmkit/internal/hdl"
	"psmkit/internal/ip"
	"psmkit/internal/testbench"
)

// The differential suite: the columnar Estimator must reproduce the
// retained scalar ReferenceEstimator bit for bit — exact float64 bits on
// the total trace and on every per-group trace — for every benchmark IP,
// many stimulus seeds, with and without a subcomponent classifier. This
// is the worklist join's pattern (checked against its restart-scan
// oracle in internal/psm) applied to the power kernel: no speed number
// counts until the outputs are pinned byte-identical.

// diffIPs are the four benchmark cores of Table I.
var diffIPs = []struct {
	name string
	mk   func() hdl.Core
}{
	{"RAM", func() hdl.Core { return ip.NewRAM() }},
	{"MultSum", func() hdl.Core { return ip.NewMultSum() }},
	{"AES", func() hdl.Core { return ip.NewAES128() }},
	{"Camellia", func() hdl.Core { return ip.NewCamellia128() }},
}

// hashClassifier buckets elements into three deterministic groups — a
// generic stand-in for per-IP subcomponent maps that exercises multiple
// concurrently-active groups on every core.
func hashClassifier(name string) string {
	switch hashName(baseName(name)) % 3 {
	case 0:
		return "alpha"
	case 1:
		return "beta"
	default:
		return "gamma"
	}
}

// kernelRun is one kernel's output over a run.
type kernelRun struct {
	total  []float64
	groups map[string][]float64
}

// estimator is the surface both kernels share.
type estimator interface {
	CyclePower(in, out hdl.Values) float64
	Classify(func(string) string)
	Groups() []string
	GroupTrace(string) []float64
	Observer() hdl.Observer
	Trace() []float64
	Reset()
}

// runKernel drives a fresh core instance for n cycles under the seeded
// stimulus program and collects the kernel's traces.
func runKernel(t *testing.T, mk func() hdl.Core, newEst func(hdl.Core, Config) estimator,
	seed int64, n int, grouped bool) kernelRun {
	t.Helper()
	core := mk()
	sim := hdl.NewSimulator(core)
	est := newEst(core, DefaultConfig())
	if grouped {
		est.Classify(hashClassifier)
	}
	sim.Observe(est.Observer())
	gen, err := testbench.For(core, testbench.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := testbench.Drive(sim, gen, n); err != nil {
		t.Fatal(err)
	}
	run := kernelRun{total: est.Trace(), groups: map[string][]float64{}}
	for _, g := range est.Groups() {
		run.groups[g] = est.GroupTrace(g)
	}
	return run
}

func newColumnar(c hdl.Core, cfg Config) estimator  { return NewEstimator(c, cfg) }
func newReference(c hdl.Core, cfg Config) estimator { return NewReferenceEstimator(c, cfg) }

// firstDivergence returns the first cycle where two traces differ in
// their exact float64 bits, or -1.
func firstDivergence(a, b []float64) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}

// divergenceAt reruns both kernels at a given cycle count and reports
// the earliest bit divergence across the total and group traces
// (-1 = identical).
func divergenceAt(t *testing.T, mk func() hdl.Core, seed int64, n int, grouped bool) (int, string) {
	ref := runKernel(t, mk, newReference, seed, n, grouped)
	col := runKernel(t, mk, newColumnar, seed, n, grouped)
	worst, where := -1, ""
	note := func(c int, w string) {
		if c >= 0 && (worst < 0 || c < worst) {
			worst, where = c, w
		}
	}
	note(firstDivergence(ref.total, col.total), "total")
	if len(ref.groups) != len(col.groups) {
		return 0, "group sets differ"
	}
	for g, rt := range ref.groups {
		note(firstDivergence(rt, col.groups[g]), "group "+g)
	}
	return worst, where
}

// shrinkCycles reduces a failing cycle count to the shortest prefix that
// still diverges, so the failure report names the exact cycle.
func shrinkCycles(t *testing.T, mk func() hdl.Core, seed int64, n int, grouped bool) int {
	lo, hi := 1, n // invariant: hi fails (some run of length <= hi diverges)
	for lo < hi {
		mid := (lo + hi) / 2
		if c, _ := divergenceAt(t, mk, seed, mid, grouped); c >= 0 {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return hi
}

// TestColumnarMatchesReference is the differential gate: 32 seeds x 4
// IPs x {ungrouped, grouped}, total and per-group traces byte-identical.
// On failure the stimulus is shrunk to the minimal diverging prefix.
func TestColumnarMatchesReference(t *testing.T) {
	const seeds = 32
	for _, c := range diffIPs {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= seeds; seed++ {
				n := 200 + int(seed*13%139)
				for _, grouped := range []bool{false, true} {
					cyc, where := divergenceAt(t, c.mk, seed, n, grouped)
					if cyc < 0 {
						continue
					}
					min := shrinkCycles(t, c.mk, seed, n, grouped)
					t.Fatalf("seed %d grouped=%v: %s diverges at cycle %d (shrunk: minimal failing run is %d cycles)",
						seed, grouped, where, cyc, min)
				}
			}
		})
	}
}

// TestColumnarMatchesReferenceAfterReset extends the differential gate
// across a Reset: both kernels, reset mid-experiment, must replay the
// identical trace (the jitter stream restarts exactly).
func TestColumnarMatchesReferenceAfterReset(t *testing.T) {
	for _, c := range diffIPs {
		core := c.mk()
		sim := hdl.NewSimulator(core)
		est := NewEstimator(core, DefaultConfig())
		sim.Observe(est.Observer())
		gen, err := testbench.For(core, testbench.Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if err := testbench.Drive(sim, gen, 150); err != nil {
			t.Fatal(err)
		}
		first := append([]float64(nil), est.Trace()...)

		sim.Reset()
		est.Reset()
		gen, err = testbench.For(core, testbench.Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if err := testbench.Drive(sim, gen, 150); err != nil {
			t.Fatal(err)
		}
		if cyc := firstDivergence(first, est.Trace()); cyc >= 0 {
			t.Fatalf("%s: post-Reset replay diverges at cycle %d", c.name, cyc)
		}
		// And the replay still matches the reference kernel bitwise.
		ref := runKernel(t, c.mk, newReference, 7, 150, false)
		if cyc := firstDivergence(ref.total, est.Trace()); cyc >= 0 {
			t.Fatalf("%s: post-Reset trace diverges from reference at cycle %d", c.name, cyc)
		}
	}
}
