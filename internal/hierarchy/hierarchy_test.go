package hierarchy

import (
	"testing"

	"psmkit/internal/hdl"
	"psmkit/internal/ip"
	"psmkit/internal/mining"
	"psmkit/internal/pipeline"
	"psmkit/internal/power"
	"psmkit/internal/powersim"
	"psmkit/internal/psm"
	"psmkit/internal/testbench"
	"psmkit/internal/trace"
)

// camTraining simulates Camellia with probes and per-group power.
func camTraining(t *testing.T, n int, seed int64, stalls bool) (*ip.Camellia128, *trace.Functional, *trace.Power, map[string]*trace.Power) {
	t.Helper()
	core := ip.NewCamellia128()
	sim := hdl.NewSimulator(core)
	est := power.NewEstimator(core, power.DefaultConfig())
	est.Classify(core.SubcomponentOf)
	ft, obs := CaptureProbed(core)
	sim.Observe(obs)
	sim.Observe(est.Observer())
	gen, err := testbench.For(core, testbench.Options{Seed: seed, Stalls: stalls})
	if err != nil {
		t.Fatal(err)
	}
	if err := testbench.Drive(sim, gen, n); err != nil {
		t.Fatal(err)
	}
	groups := map[string]*trace.Power{}
	for _, g := range est.Groups() {
		groups[g] = &trace.Power{Values: est.GroupTrace(g)}
	}
	return core, ft, &trace.Power{Values: est.Trace()}, groups
}

func TestProbedSchemaExtendsPorts(t *testing.T) {
	core := ip.NewCamellia128()
	sigs := ProbedSchema(core)
	base := trace.CoreSchema(core)
	if len(sigs) != len(base)+2 {
		t.Fatalf("probed schema has %d signals, want %d", len(sigs), len(base)+2)
	}
	if sigs[len(sigs)-2].Name != "p_step" || sigs[len(sigs)-1].Name != "p_ksu_fetch" {
		t.Errorf("probe columns wrong: %v", sigs[len(sigs)-2:])
	}
}

func TestCaptureProbedRecordsProbes(t *testing.T) {
	_, ft, _, _ := camTraining(t, 300, 7, false)
	if ft.Len() != 300 {
		t.Fatalf("captured %d rows", ft.Len())
	}
	fetchCol := ft.Column("p_ksu_fetch")
	stepCol := ft.Column("p_step")
	if fetchCol < 0 || stepCol < 0 {
		t.Fatal("probe columns missing")
	}
	fetches, busySteps := 0, 0
	for i := 0; i < ft.Len(); i++ {
		if ft.Value(i, fetchCol).Bit(0) == 1 {
			fetches++
		}
		if !ft.Value(i, stepCol).IsZero() {
			busySteps++
		}
	}
	if fetches == 0 || busySteps == 0 {
		t.Errorf("probes inactive: fetches=%d busySteps=%d", fetches, busySteps)
	}
	// The prefetcher fires on ~1/4 of the busy cycles (steps 1,5,9,13,17,21
	// of 21, minus the ramp).
	if fetches > busySteps {
		t.Errorf("fetch strobes (%d) exceed busy cycles (%d)", fetches, busySteps)
	}
}

func TestGroupPowerSumsToTotal(t *testing.T) {
	_, _, total, groups := camTraining(t, 500, 11, false)
	for i := range total.Values {
		var sum float64
		for _, g := range groups {
			sum += g.Values[i]
		}
		if diff := sum - total.Values[i]; diff > 1e-18 || diff < -1e-18 {
			t.Fatalf("instant %d: group sum %g != total %g", i, sum, total.Values[i])
		}
	}
	if len(groups["ksu"].Values) != total.Len() {
		t.Error("ksu trace length mismatch")
	}
	// The key-schedule unit must consume a visible share of the power.
	var ksu, tot float64
	for i := range total.Values {
		ksu += groups["ksu"].Values[i]
		tot += total.Values[i]
	}
	if ksu <= 0 || ksu >= tot {
		t.Errorf("ksu share = %g of %g", ksu, tot)
	}
}

func TestBuildAndRunHierarchical(t *testing.T) {
	_, ft, total, groups := camTraining(t, 6000, 21, false)
	pws := map[string][]*trace.Power{}
	for g, pw := range groups {
		pws[g] = []*trace.Power{pw}
	}
	core := ip.NewCamellia128()
	inputCols := trace.InputColumns(ft, core)

	model, err := Build([]*trace.Functional{ft}, pws, inputCols, pipeline.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(model.Subs) < 2 {
		t.Fatalf("expected at least data+ksu sub-models, got %v", model.Subs)
	}
	if model.States() <= 0 {
		t.Error("no states")
	}

	// Self-validation: the hierarchical estimate must beat the flat one.
	res := Run(model, ft, inputCols, total, powersim.DefaultConfig())
	if res.MRE > 0.12 {
		t.Errorf("hierarchical training MRE = %g", res.MRE)
	}

	// Flat comparison on the same (probed) traces and total power.
	dict, pts, err := mining.Mine([]*trace.Functional{ft}, mining.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	chain, err := psm.Generate(dict, pts[0], total, 0)
	if err != nil {
		t.Fatal(err)
	}
	flat := psm.Join([]*psm.Chain{psm.Simplify(chain, psm.DefaultMergePolicy())}, psm.DefaultMergePolicy())
	psm.Calibrate(flat, []*trace.Functional{ft}, []*trace.Power{total}, inputCols, psm.DefaultCalibrationPolicy())
	flatRes := powersim.Run(flat, ft, inputCols, total, powersim.DefaultConfig())

	if res.MRE >= flatRes.MRE {
		t.Errorf("hierarchical MRE %.3f should beat flat %.3f", res.MRE, flatRes.MRE)
	}
}

func TestBuildSkipsZeroGroups(t *testing.T) {
	_, ft, _, groups := camTraining(t, 400, 31, false)
	pws := map[string][]*trace.Power{}
	for g, pw := range groups {
		pws[g] = []*trace.Power{pw}
	}
	// Add an artificial all-zero subcomponent: it must be skipped.
	zero := make([]float64, ft.Len())
	pws["dead"] = []*trace.Power{{Values: zero}}
	model, err := Build([]*trace.Functional{ft}, pws, nil, pipeline.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range model.Subs {
		if s.Group == "dead" {
			t.Error("all-zero subcomponent was modelled")
		}
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, nil, nil, pipeline.DefaultConfig()); err == nil {
		t.Error("no traces accepted")
	}
	_, ft, _, groups := camTraining(t, 300, 41, false)
	pws := map[string][]*trace.Power{"data": {groups["data"], groups["data"]}}
	if _, err := Build([]*trace.Functional{ft}, pws, nil, pipeline.DefaultConfig()); err == nil {
		t.Error("mismatched power-trace count accepted")
	}
	zero := map[string][]*trace.Power{"z": {{Values: make([]float64, ft.Len())}}}
	if _, err := Build([]*trace.Functional{ft}, zero, nil, pipeline.DefaultConfig()); err == nil {
		t.Error("all-zero model accepted")
	}
}

func TestSimulatorStepSumsSubEstimates(t *testing.T) {
	_, ft, _, groups := camTraining(t, 2000, 51, false)
	pws := map[string][]*trace.Power{}
	for g, pw := range groups {
		pws[g] = []*trace.Power{pw}
	}
	model, err := Build([]*trace.Functional{ft}, pws, nil, pipeline.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sum := NewSimulator(model, nil, powersim.DefaultConfig())
	indiv := make([]*powersim.Simulator, len(model.Subs))
	for i, s := range model.Subs {
		indiv[i] = powersim.New(s.Model, nil, powersim.DefaultConfig())
	}
	for t2 := 0; t2 < ft.Len(); t2++ {
		row := ft.Row(t2)
		got := sum.Step(row)
		var want float64
		for _, s := range indiv {
			want += s.Step(row)
		}
		if got != want {
			t.Fatalf("instant %d: sum %g != Σ %g", t2, got, want)
		}
	}
}

func TestProjectMatchesFlatCapture(t *testing.T) {
	// Projecting the probed capture onto the port columns must equal a
	// plain Capture of the same simulation.
	core := ip.NewCamellia128()
	sim := hdl.NewSimulator(core)
	pft, pobs := CaptureProbed(core)
	fft, fobs := trace.Capture(core)
	sim.Observe(pobs)
	sim.Observe(fobs)
	gen, _ := testbench.For(core, testbench.Options{Seed: 3})
	if err := testbench.Drive(sim, gen, 200); err != nil {
		t.Fatal(err)
	}
	cols := make([]int, len(fft.Signals))
	for i := range cols {
		cols[i] = i
	}
	proj := pft.Project(cols)
	if !proj.SameSchema(fft) {
		t.Fatal("projected schema differs")
	}
	for t2 := 0; t2 < fft.Len(); t2++ {
		for c := range fft.Signals {
			if !proj.Value(t2, c).Equal(fft.Value(t2, c)) {
				t.Fatalf("value (%d,%d) differs", t2, c)
			}
		}
	}
}
