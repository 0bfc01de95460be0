package experiment

import (
	"testing"

	"psmkit/internal/logic"
	"psmkit/internal/powersim"
	"psmkit/internal/testbench"
)

func TestCases(t *testing.T) {
	cs := Cases()
	if len(cs) != 4 {
		t.Fatalf("cases = %d", len(cs))
	}
	want := map[string]int{"RAM": 34130, "MultSum": 12002, "AES": 16504, "Camellia": 78004}
	for _, c := range cs {
		if want[c.Name] != c.ShortTS {
			t.Errorf("%s short-TS = %d, want %d (paper Table II)", c.Name, c.ShortTS, want[c.Name])
		}
		if c.LongTS != 500000 {
			t.Errorf("%s long-TS = %d, want 500000", c.Name, c.LongTS)
		}
	}
	if _, err := CaseByName("AES"); err != nil {
		t.Error(err)
	}
	if _, err := CaseByName("Z80"); err == nil {
		t.Error("unknown IP accepted")
	}
}

func TestTableIShape(t *testing.T) {
	rows := TableI()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byIP := map[string]TableIRow{}
	for _, r := range rows {
		byIP[r.IP] = r
		if r.Lines <= 0 {
			t.Errorf("%s: zero source lines", r.IP)
		}
		if r.ElabSecs < 0 {
			t.Errorf("%s: negative elaboration time", r.IP)
		}
	}
	// Table I invariants from the paper: RAM has by far the most memory
	// elements (the 1KB array), the ciphers have the widest interfaces.
	if byIP["RAM"].MemElems != 8192 {
		t.Errorf("RAM memory elements = %d", byIP["RAM"].MemElems)
	}
	if byIP["RAM"].PIs != 44 || byIP["RAM"].POs != 32 {
		t.Errorf("RAM interface = %d/%d", byIP["RAM"].PIs, byIP["RAM"].POs)
	}
	if byIP["AES"].PIs != 260 || byIP["Camellia"].PIs != 262 {
		t.Errorf("cipher PIs = %d/%d", byIP["AES"].PIs, byIP["Camellia"].PIs)
	}
	if byIP["MultSum"].MemElems >= byIP["AES"].MemElems {
		t.Error("MultSum should be smaller than AES")
	}
}

func TestGenerateTracesSplitsAndAligns(t *testing.T) {
	c, _ := CaseByName("MultSum")
	ts, err := GenerateTraces(c, 1000, 4, testbench.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.FTs) != 4 || len(ts.PWs) != 4 {
		t.Fatalf("pieces = %d/%d", len(ts.FTs), len(ts.PWs))
	}
	if ts.Instants() != 1000 {
		t.Errorf("instants = %d", ts.Instants())
	}
	for i, ft := range ts.FTs {
		if ft.Len() != ts.PWs[i].Len() {
			t.Errorf("piece %d: functional %d vs power %d", i, ft.Len(), ts.PWs[i].Len())
		}
	}
	if len(ts.InputCols) != 4 {
		t.Errorf("input cols = %v", ts.InputCols)
	}
	if ts.PXTime <= 0 {
		t.Error("PX time not recorded")
	}
}

func TestGenerateTracesErrors(t *testing.T) {
	c, _ := CaseByName("RAM")
	if _, err := GenerateTraces(c, 2, 4, testbench.Options{}); err == nil {
		t.Error("bad split accepted")
	}
}

func TestFullFlowSmallScaleShape(t *testing.T) {
	// A miniature end-to-end run of the Table II experiment for every IP,
	// checking the qualitative shape the paper reports rather than exact
	// numbers: small PSMs, sub-second generation, and the accuracy
	// ordering RAM < AES/MultSum << Camellia.
	pol := DefaultPolicies()
	mre := map[string]float64{}
	for _, c := range Cases() {
		row, err := TableIIFor(c, false, 0.08, pol)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if row.States < 2 || row.States > 40 {
			t.Errorf("%s: %d states — PSMs should stay compact", c.Name, row.States)
		}
		if row.MRE < 0 || row.MRE > 1 {
			t.Errorf("%s: MRE = %g out of range", c.Name, row.MRE)
		}
		mre[c.Name] = row.MRE
	}
	if !(mre["RAM"] < mre["MultSum"]) {
		t.Errorf("RAM MRE %.3f should be below MultSum %.3f", mre["RAM"], mre["MultSum"])
	}
	if !(mre["Camellia"] > 2*mre["AES"]) {
		t.Errorf("Camellia MRE %.3f should dominate AES %.3f", mre["Camellia"], mre["AES"])
	}
}

func TestTableIIIForSmallScale(t *testing.T) {
	c, _ := CaseByName("MultSum")
	pol := DefaultPolicies()
	row, err := TableIIIFor(c, 0.02, pol)
	if err != nil {
		t.Fatal(err)
	}
	if row.IPSimSecs <= 0 || row.CoSimSecs <= 0 {
		t.Error("timings missing")
	}
	// The co-simulation column times the IP with the PSM tracker in
	// lock-step. Pin that work deterministically — one tracker Step per
	// validation cycle, on the validation stimulus TableIIIFor drives —
	// instead of ordering two wall-clock figures, which a loaded machine
	// can invert. The replay's WSP must equal the row's, so it is the
	// tracker run the row reports.
	ts, err := GenerateTraces(c, scaled(c.ShortTS, 0.02), Pieces, testbench.Options{Seed: c.Seed})
	if err != nil {
		t.Fatal(err)
	}
	flow, err := BuildModel(ts, pol)
	if err != nil {
		t.Fatal(err)
	}
	tracker := powersim.New(flow.Model, ts.InputCols, powersim.DefaultConfig())
	steps := 0
	valOpts := testbench.Options{Seed: c.Seed + 424243, Stalls: true}
	if _, err := timeFunctional(c, row.Validation, valOpts, func(r []logic.Vector) {
		tracker.Step(r)
		steps++
	}); err != nil {
		t.Fatal(err)
	}
	if res := tracker.Result(); steps != row.Validation || res.Instants != row.Validation {
		t.Errorf("co-simulation stepped the tracker %d times over %d instants, want one step per validation cycle (%d)",
			steps, res.Instants, row.Validation)
	}
	if wsp := tracker.Result().WSP(); wsp != row.WSP {
		t.Errorf("replayed co-simulation WSP %g, row reports %g", wsp, row.WSP)
	}
	// At this tiny training scale a handful of mispredictions can occur;
	// the full-scale run (EXPERIMENTS.md) gives exactly 0.
	if row.WSP > 0.05 {
		t.Errorf("MultSum WSP = %g, want ~0 (no unknown behaviours)", row.WSP)
	}
	if row.MRE <= 0 || row.MRE > 0.5 {
		t.Errorf("MRE = %g", row.MRE)
	}
	if row.Validation <= 0 {
		t.Error("validation length missing")
	}
}

func TestCamelliaCrossValidationExposesWSP(t *testing.T) {
	c, _ := CaseByName("Camellia")
	row, err := TableIIIFor(c, 0.05, DefaultPolicies())
	if err != nil {
		t.Fatal(err)
	}
	if row.WSP <= 0 {
		t.Error("Camellia long-TS (with stalls) should produce wrong-state predictions")
	}
	if row.MRE < 0.1 {
		t.Errorf("Camellia MRE = %g, expected the paper's poorly-correlated-subcomponent degradation", row.MRE)
	}
}

func TestValidateMREOnTraining(t *testing.T) {
	c, _ := CaseByName("RAM")
	ts, err := GenerateTraces(c, 3000, Pieces, testbench.Options{Seed: c.Seed})
	if err != nil {
		t.Fatal(err)
	}
	flow, err := BuildModel(ts, DefaultPolicies())
	if err != nil {
		t.Fatal(err)
	}
	mre, wsp := ValidateMRE(flow.Model, ts, powersim.DefaultConfig())
	if mre > 0.10 {
		t.Errorf("RAM training MRE = %g", mre)
	}
	if wsp > 0.2 {
		t.Errorf("RAM training WSP = %g", wsp)
	}
	if flow.GenTime <= 0 {
		t.Error("generation time not recorded")
	}
}

func TestPoliciesAblation(t *testing.T) {
	// Disabling calibration must hurt the data-dependent RAM.
	c, _ := CaseByName("RAM")
	ts, err := GenerateTraces(c, 4000, Pieces, testbench.Options{Seed: c.Seed})
	if err != nil {
		t.Fatal(err)
	}
	with, err := BuildModel(ts, DefaultPolicies())
	if err != nil {
		t.Fatal(err)
	}
	pol := DefaultPolicies()
	pol.SkipCalibration = true
	without, err := BuildModel(ts, pol)
	if err != nil {
		t.Fatal(err)
	}
	mreWith, _ := ValidateMRE(with.Model, ts, powersim.DefaultConfig())
	mreWithout, _ := ValidateMRE(without.Model, ts, powersim.DefaultConfig())
	if mreWithout <= mreWith {
		t.Errorf("calibration off: MRE %.4f should exceed calibrated %.4f", mreWithout, mreWith)
	}
}

func TestHierarchicalCamelliaBeatsFlat(t *testing.T) {
	row, err := HierarchicalCamellia(0.1, DefaultPolicies())
	if err != nil {
		t.Fatal(err)
	}
	if row.HierMRE >= row.FlatMRE/2 {
		t.Errorf("hierarchical MRE %.3f should be well below flat %.3f", row.HierMRE, row.FlatMRE)
	}
	if row.FlatMRE < 0.15 {
		t.Errorf("flat Camellia MRE %.3f unexpectedly low — the subcomponent decorrelation is gone", row.FlatMRE)
	}
	found := false
	for _, g := range row.Groups {
		if g == "ksu" {
			found = true
		}
	}
	if !found {
		t.Errorf("key-schedule unit missing from groups %v", row.Groups)
	}
}

func TestBaselinesShape(t *testing.T) {
	rows, err := Baselines(0.08, DefaultPolicies())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// The PSM must beat the constant baseline everywhere, and the
		// stateless global regression on every IP (structure matters).
		if r.PSMMRE >= r.ConstantMRE {
			t.Errorf("%s: PSM MRE %.3f not better than constant %.3f", r.IP, r.PSMMRE, r.ConstantMRE)
		}
		if r.PSMMRE >= r.RegressionMRE {
			t.Errorf("%s: PSM MRE %.3f not better than global regression %.3f", r.IP, r.PSMMRE, r.RegressionMRE)
		}
	}
}
