package power

import (
	"math"
	"testing"

	"psmkit/internal/hdl"
	"psmkit/internal/logic"
)

// Invariant suite for the power kernels: the contracts that were never
// pinned before the columnar rework — the uniform-jitter group-sum
// identity, exact jitter-stream restoration across Reset, the
// Classify-after-first-cycle misuse guard, and explicit boundary-history
// ownership.

// ulpDist returns the distance between two finite same-sign float64
// values in units of least precision (0 = identical bits).
func ulpDist(a, b float64) uint64 {
	ai, bi := int64(math.Float64bits(a)), int64(math.Float64bits(b))
	d := ai - bi
	if d < 0 {
		d = -d
	}
	return uint64(d)
}

// TestGroupSumsEqualTotalExactly pins the uniform-jitter contract on
// every benchmark IP and both kernels: summing the per-group traces in
// Groups() order reproduces the total trace at exactly 0 ULP, cycle by
// cycle.
func TestGroupSumsEqualTotalExactly(t *testing.T) {
	for _, c := range diffIPs {
		for _, k := range []struct {
			name string
			mk   func(hdl.Core, Config) estimator
		}{{"columnar", newColumnar}, {"reference", newReference}} {
			run := runKernel(t, c.mk, k.mk, 11, 300, true)
			// Groups() order is what runKernel's map lost; rebuild it.
			core := c.mk()
			est := NewEstimator(core, DefaultConfig())
			est.Classify(hashClassifier)
			order := est.Groups()

			for i := range run.total {
				sum := 0.0
				for _, g := range order {
					sum += run.groups[g][i]
				}
				if d := ulpDist(sum, run.total[i]); d != 0 {
					t.Fatalf("%s/%s cycle %d: group sum %g differs from total %g by %d ULP",
						c.name, k.name, i, sum, run.total[i], d)
				}
			}
		}
	}
}

// TestResetRestoresExactJitterStream runs the full jitter-bearing config
// twice around a Reset on each IP: the two runs must be bit-equal, for
// the total and for every group trace.
func TestResetRestoresExactJitterStream(t *testing.T) {
	for _, c := range diffIPs {
		first := runKernel(t, c.mk, newColumnar, 3, 120, true)
		second := runKernel(t, c.mk, newColumnar, 3, 120, true)
		if cyc := firstDivergence(first.total, second.total); cyc >= 0 {
			t.Fatalf("%s: fresh runs diverge at cycle %d", c.name, cyc)
		}
		for g, tr := range first.groups {
			if cyc := firstDivergence(tr, second.groups[g]); cyc >= 0 {
				t.Fatalf("%s group %s: fresh runs diverge at cycle %d", c.name, g, cyc)
			}
		}
	}
}

func expectPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// TestClassifyAfterFirstCyclePanics: installing a classifier once cycles
// have been recorded would silently desynchronize the group traces from
// the total — both kernels must refuse.
func TestClassifyAfterFirstCyclePanics(t *testing.T) {
	mkCore := func() (hdl.Core, hdl.Values) {
		core := newToggler()
		return core, hdl.Values{"go": logic.FromUint64(1, 1)}
	}

	core, in := mkCore()
	est := NewEstimator(core, DefaultConfig())
	est.CyclePower(in, core.Step(in))
	expectPanic(t, "columnar Classify after first cycle", func() {
		est.Classify(func(string) string { return "g" })
	})

	core2, in2 := mkCore()
	ref := NewReferenceEstimator(core2, DefaultConfig())
	ref.CyclePower(in2, core2.Step(in2))
	expectPanic(t, "reference Classify after first cycle", func() {
		ref.Classify(func(string) string { return "g" })
	})

	// A reset re-arms classification: a reset estimator has no recorded
	// cycles to desynchronize from.
	reset(est, core)
	est.Classify(func(string) string { return "g" })
}

// TestBoundaryHistoryOwnership pins the boundary-history ownership
// contract: the estimator retains the (immutable) port vectors of the
// previous cycle but never the caller's Values map — mutating the map
// after CyclePower returns must not perturb later cycles — and Reset
// severs the history completely, so the cycle after a Reset charges no
// boundary toggles.
func TestBoundaryHistoryOwnership(t *testing.T) {
	for _, k := range []struct {
		name string
		mk   func(hdl.Core, Config) estimator
	}{{"columnar", newColumnar}, {"reference", newReference}} {
		run := func(mutate bool) []float64 {
			core := newToggler()
			est := k.mk(core, noNoise())
			var trace []float64
			step := func(bit uint64) {
				in := hdl.Values{"go": logic.FromUint64(1, bit)}
				out := core.Step(in)
				trace = append(trace, est.CyclePower(in, out))
				if mutate {
					// A hostile caller recycles its maps: overwrite both
					// valuations with maximally-different vectors.
					in["go"] = logic.FromUint64(1, 1^bit)
					out["q"] = out["q"].Not()
				}
			}
			for _, b := range []uint64{0, 1, 0, 1, 1, 0} {
				step(b)
			}
			return trace
		}
		clean, dirty := run(false), run(true)
		if cyc := firstDivergence(clean, dirty); cyc >= 0 {
			t.Fatalf("%s: caller-side map mutation changed cycle %d: %g vs %g",
				k.name, cyc, clean[cyc], dirty[cyc])
		}
	}

	// Reset severs the history: the first cycle after Reset sees no
	// boundary toggles even though the valuations changed across it.
	core := newToggler()
	est := NewEstimator(core, noNoise())
	in0 := hdl.Values{"go": logic.FromUint64(1, 0)}
	est.CyclePower(in0, core.Step(in0))
	reset(est, core)
	core.Reset()
	in1 := hdl.Values{"go": logic.FromUint64(1, 1)}
	out1 := core.Step(in1)
	p := est.CyclePower(in1, out1)
	// The only charges allowed are element data/clock power — strip them
	// by comparing against a fresh estimator fed the same single cycle.
	core2 := newToggler()
	est2 := NewEstimator(core2, noNoise())
	p2 := est2.CyclePower(in1, core2.Step(in1))
	if math.Float64bits(p) != math.Float64bits(p2) {
		t.Fatalf("first cycle after Reset charges stale boundary history: %g vs fresh %g", p, p2)
	}
}
