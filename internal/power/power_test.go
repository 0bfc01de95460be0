package power

import (
	"math"
	"testing"

	"psmkit/internal/hdl"
	"psmkit/internal/logic"
	"psmkit/internal/stats"
)

// toggler is a toy core whose internal register toggles all bits when
// "go" is asserted and is clock-gated otherwise.
type toggler struct {
	r *hdl.Reg
}

func newToggler() *toggler { return &toggler{r: hdl.NewReg("t.r", 32)} }

func (t *toggler) Name() string { return "toggler" }
func (t *toggler) Ports() []hdl.PortSpec {
	return []hdl.PortSpec{
		{Name: "go", Width: 1, Dir: hdl.In},
		{Name: "q", Width: 32, Dir: hdl.Out},
	}
}
func (t *toggler) Reset()               { t.r.Reset() }
func (t *toggler) Elements() []*hdl.Reg { return []*hdl.Reg{t.r} }
func (t *toggler) Step(in hdl.Values) hdl.Values {
	active := in["go"].Bit(0) == 1
	t.r.Gate(!active)
	if active {
		t.r.Set(t.r.Get().Not())
	}
	return hdl.Values{"q": t.r.Get()}
}

func run(cfg Config, stim []uint64) []float64 {
	core := newToggler()
	sim := hdl.NewSimulator(core)
	est := NewEstimator(core, cfg)
	sim.Observe(est.Observer())
	for _, g := range stim {
		sim.MustStep(hdl.Values{"go": logic.FromUint64(1, g)})
	}
	return est.Trace()
}

func noNoise() Config {
	cfg := DefaultConfig()
	cfg.NoiseAmp = 0
	return cfg
}

func TestActiveConsumesMoreThanIdle(t *testing.T) {
	trace := run(noNoise(), []uint64{0, 0, 0, 1, 1, 1})
	idle := stats.MomentsOf(trace[:3]).Mean()
	active := stats.MomentsOf(trace[4:]).Mean()
	if active <= idle {
		t.Errorf("active power %g <= idle power %g", active, idle)
	}
	if idle < 0 {
		t.Errorf("negative idle power %g", idle)
	}
}

func TestGatedIdleDrawsNoClockPower(t *testing.T) {
	// With gating, idle cycles (after the first, which sees I/O toggles
	// from the boundary history warm-up) should draw exactly zero.
	trace := run(noNoise(), []uint64{0, 0, 0, 0})
	for i := 1; i < len(trace); i++ {
		if trace[i] != 0 {
			t.Errorf("gated idle cycle %d: power = %g, want 0", i, trace[i])
		}
	}
}

func TestDataPowerMatchesFormula(t *testing.T) {
	cfg := noNoise()
	core := newToggler()
	sim := hdl.NewSimulator(core)
	est := NewEstimator(core, cfg)
	sim.Observe(est.Observer())

	// Warm up boundary history with an idle cycle, then toggle.
	sim.MustStep(hdl.Values{"go": logic.FromUint64(1, 0)})
	sim.MustStep(hdl.Values{"go": logic.FromUint64(1, 1)})
	p := est.Trace()[1]

	// Expected capacitance: 32 data toggles × dataCap×f + 32-bit clock pin
	// cap ×f + boundary: "go" toggles 1 bit, "q" toggles 32 bits.
	f := 0.8 + 0.4*unit(hashName("t.r"))
	c := 32*cfg.DataCapF*f + 32*cfg.ClockCapF*f + 33*cfg.IOCapF
	want := 0.5 * cfg.VDD * cfg.VDD * cfg.ClockHz * c
	if math.Abs(p-want)/want > 1e-12 {
		t.Errorf("power = %g, want %g", p, want)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	stim := []uint64{0, 1, 1, 0, 1, 0, 0, 1, 1, 1}
	a := run(DefaultConfig(), stim)
	b := run(DefaultConfig(), stim)
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cycle %d: %g != %g", i, a[i], b[i])
		}
	}
}

func TestNoiseBoundsAndVariation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoiseAmp = 0.01
	stim := make([]uint64, 200)
	for i := range stim {
		stim[i] = 1
	}
	noisy := run(cfg, stim)
	clean := run(noNoise(), stim)
	distinct := 0
	for i := 2; i < len(stim); i++ {
		rel := math.Abs(noisy[i]-clean[i]) / clean[i]
		if rel > cfg.NoiseAmp+1e-12 {
			t.Fatalf("cycle %d: jitter %g exceeds amplitude", i, rel)
		}
		if noisy[i] != noisy[2] {
			distinct++
		}
	}
	if distinct == 0 {
		t.Error("jitter produced a constant trace")
	}
}

func TestSeedChangesJitterOnly(t *testing.T) {
	stim := []uint64{1, 1, 1, 1, 1, 1}
	cfg2 := DefaultConfig()
	cfg2.Seed = 12345
	a := run(DefaultConfig(), stim)
	b := run(cfg2, stim)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		// same underlying power, different jitter: within 2×noise of each other
		if math.Abs(a[i]-b[i]) > 0.03*a[i] {
			t.Fatalf("cycle %d: seeds diverge too much: %g vs %g", i, a[i], b[i])
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

// reset rewinds an estimator for a replay of its core: boundary
// history, jitter stream and recorded traces go back to their state
// after NewEstimator (a core binds one estimator for life, so a replay
// on the same core cannot build a fresh one). Pending element activity
// is left to the core's own Reset.
func reset(e *Estimator, core hdl.Core) {
	for _, b := range []*boundary{e.in, e.out} {
		for i := range b.prev {
			b.prev[i], b.ok[i] = logic.Vector{}, false
		}
		b.armed = false
	}
	e.rng = e.cfg.Seed ^ hashName(core.Name())
	e.trace = nil
	e.started = false
	for i := range e.groupTraces {
		e.groupTraces[i] = nil
	}
	for i := range e.groupAccum {
		e.groupAccum[i] = 0
	}
}

func TestEstimatorReset(t *testing.T) {
	core := newToggler()
	sim := hdl.NewSimulator(core)
	est := NewEstimator(core, DefaultConfig())
	sim.Observe(est.Observer())
	stim := []uint64{0, 1, 1, 0}
	for _, g := range stim {
		sim.MustStep(hdl.Values{"go": logic.FromUint64(1, g)})
	}
	first := append([]float64(nil), est.Trace()...)
	sim = hdl.NewSimulator(core) // resets the core
	sim.Observe(est.Observer())
	reset(est, core)
	for _, g := range stim {
		sim.MustStep(hdl.Values{"go": logic.FromUint64(1, g)})
	}
	second := est.Trace()
	if len(second) != len(first) {
		t.Fatalf("trace length %d vs %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("cycle %d not reproducible after Reset: %g vs %g", i, first[i], second[i])
		}
	}
}

func TestElaborationReportsTime(t *testing.T) {
	est := NewEstimator(newToggler(), DefaultConfig())
	if est.ElaborationTime() < 0 {
		t.Error("negative elaboration time")
	}
}

func TestXorshiftNeverSticksAtZero(t *testing.T) {
	if xorshift(0) == 0 {
		t.Error("xorshift(0) = 0")
	}
	x := uint64(1)
	for i := 0; i < 1000; i++ {
		x = xorshift(x)
		if x == 0 {
			t.Fatal("xorshift reached 0")
		}
	}
}

func TestUnitRange(t *testing.T) {
	for _, x := range []uint64{0, 1, math.MaxUint64, 0xdeadbeef} {
		u := unit(x)
		if u < 0 || u >= 1 {
			t.Errorf("unit(%#x) = %g out of [0,1)", x, u)
		}
	}
}

func TestClassifyGroupAccounting(t *testing.T) {
	core := newToggler()
	sim := hdl.NewSimulator(core)
	est := NewEstimator(core, noNoise())
	est.Classify(func(name string) string {
		if name == "t.r" {
			return "datapath"
		}
		return "other"
	})
	sim.Observe(est.Observer())
	for _, g := range []uint64{0, 1, 1, 0, 1} {
		sim.MustStep(hdl.Values{"go": logic.FromUint64(1, g)})
	}
	groups := est.Groups()
	if len(groups) != 2 { // datapath + reserved io
		t.Fatalf("groups = %v", groups)
	}
	dp := est.GroupTrace("datapath")
	io := est.GroupTrace(IOGroup)
	total := est.Trace()
	if dp == nil || io == nil {
		t.Fatal("group traces missing")
	}
	for i := range total {
		if diff := dp[i] + io[i] - total[i]; diff > 1e-20 || diff < -1e-20 {
			t.Fatalf("cycle %d: groups sum %g != total %g", i, dp[i]+io[i], total[i])
		}
	}
	if est.GroupTrace("nope") != nil {
		t.Error("unknown group returned a trace")
	}
}

func TestClassifyResetClearsGroups(t *testing.T) {
	core := newToggler()
	sim := hdl.NewSimulator(core)
	est := NewEstimator(core, DefaultConfig())
	est.Classify(func(string) string { return "all" })
	sim.Observe(est.Observer())
	stim := []uint64{1, 0, 1, 1}
	for _, g := range stim {
		sim.MustStep(hdl.Values{"go": logic.FromUint64(1, g)})
	}
	first := append([]float64(nil), est.GroupTrace("all")...)
	sim = hdl.NewSimulator(core) // resets the core
	sim.Observe(est.Observer())
	reset(est, core)
	if got := est.GroupTrace("all"); len(got) != 0 {
		t.Fatalf("group trace not cleared: %d entries", len(got))
	}
	for _, g := range stim {
		sim.MustStep(hdl.Values{"go": logic.FromUint64(1, g)})
	}
	second := est.GroupTrace("all")
	if len(second) != len(first) {
		t.Fatalf("lengths differ after reset")
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("cycle %d not reproducible: %g vs %g", i, first[i], second[i])
		}
	}
}
