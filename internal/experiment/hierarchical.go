package experiment

import (
	"fmt"
	"time"

	"psmkit/internal/hdl"
	"psmkit/internal/hierarchy"
	"psmkit/internal/ip"
	"psmkit/internal/pipeline"
	"psmkit/internal/power"
	"psmkit/internal/powersim"
	"psmkit/internal/testbench"
	"psmkit/internal/trace"
)

// HierarchicalRow compares the flat PI/PO-level PSM against the
// hierarchical per-subcomponent PSMs (the paper's Section VII future
// work) on the Camellia benchmark.
type HierarchicalRow struct {
	Groups      []string
	FlatStates  int
	HierStates  int
	FlatMRE     float64
	HierMRE     float64
	FlatGenSecs float64
	HierGenSecs float64
	Validation  int
}

// probedSet holds probed-schema training data with per-group power.
type probedSet struct {
	fts       []*trace.Functional
	total     []*trace.Power
	groups    map[string][]*trace.Power
	inputCols []int // in the probed schema
	flatCols  []int // PI/PO projection columns
}

// generateProbed simulates Camellia capturing the extended schema and the
// per-subcomponent power traces.
func generateProbed(c IPCase, total, pieces int, opts testbench.Options) (*probedSet, error) {
	ps := &probedSet{groups: map[string][]*trace.Power{}}
	per := total / pieces
	for p := 0; p < pieces; p++ {
		n := per
		if p == pieces-1 {
			n = total - per*(pieces-1)
		}
		core := c.New()
		probed, ok := core.(hdl.Probed)
		if !ok {
			return nil, fmt.Errorf("experiment: core %s exposes no probes", c.Name)
		}
		cam, ok := core.(*ip.Camellia128)
		if !ok {
			return nil, fmt.Errorf("experiment: hierarchical flow is defined for Camellia")
		}
		sim := hdl.NewSimulator(core)
		est := power.NewEstimator(core, power.DefaultConfig())
		est.Classify(cam.SubcomponentOf)
		ft, obs := hierarchy.CaptureProbed(probed)
		sim.Observe(obs)
		sim.Observe(est.Observer())
		pOpts := opts
		pOpts.Seed = opts.Seed + int64(p)*7919
		gen, err := testbench.For(core, pOpts)
		if err != nil {
			return nil, err
		}
		if err := testbench.Drive(sim, gen, n); err != nil {
			return nil, err
		}
		ps.fts = append(ps.fts, ft)
		ps.total = append(ps.total, &trace.Power{Values: est.Trace()})
		for _, g := range est.Groups() {
			ps.groups[g] = append(ps.groups[g], &trace.Power{Values: est.GroupTrace(g)})
		}
		if p == 0 {
			ps.inputCols = trace.InputColumns(ft, core)
			// Flat projection: the PI/PO columns only (the probes come
			// after the ports in the probed schema).
			nPorts := len(trace.CoreSchema(core))
			for i := 0; i < nPorts; i++ {
				ps.flatCols = append(ps.flatCols, i)
			}
		}
	}
	return ps, nil
}

// HierarchicalCamellia trains both models on short-TS and cross-validates
// them on a long-TS slice (with stall injection, like Table III). scale
// shrinks both testsets; the reference experiment uses scale = 1.
func HierarchicalCamellia(scale float64, cfg pipeline.Config) (HierarchicalRow, error) {
	c, err := CaseByName("Camellia")
	if err != nil {
		return HierarchicalRow{}, err
	}
	train, err := generateProbed(c, scaled(c.ShortTS, scale), Pieces, testbench.Options{Seed: c.Seed})
	if err != nil {
		return HierarchicalRow{}, err
	}

	row := HierarchicalRow{}

	// Flat flow: project the probed traces down to the PI/PO schema.
	flatStart := time.Now()
	flatTS := &TraceSet{Case: c, PWs: train.total}
	for _, ft := range train.fts {
		flatTS.FTs = append(flatTS.FTs, ft.Project(train.flatCols))
	}
	flatTS.InputCols = train.inputCols // same indices: inputs precede probes
	flatFlow, err := BuildModel(flatTS, cfg)
	if err != nil {
		return HierarchicalRow{}, err
	}
	row.FlatGenSecs = time.Since(flatStart).Seconds()
	row.FlatStates = flatFlow.Model.NumStates()

	// Hierarchical flow: extended schema + per-subcomponent power.
	hierStart := time.Now()
	hier, err := hierarchy.Build(train.fts, train.groups, train.inputCols, cfg)
	if err != nil {
		return HierarchicalRow{}, err
	}
	row.HierGenSecs = time.Since(hierStart).Seconds()
	row.HierStates = hier.States()
	for _, s := range hier.Subs {
		row.Groups = append(row.Groups, s.Group)
	}

	// Cross-validation on a long-TS slice with stalls.
	n := scaled(c.LongTS/5, scale)
	val, err := generateProbed(c, n, 1, testbench.Options{Seed: c.Seed + 424243, Stalls: true})
	if err != nil {
		return HierarchicalRow{}, err
	}
	row.Validation = n

	flatRes := powersim.Run(flatFlow.Model, val.fts[0].Project(val.flatCols),
		val.inputCols, val.total[0], powersim.DefaultConfig())
	row.FlatMRE = flatRes.MRE

	hierRes := hierarchy.Run(hier, val.fts[0], val.inputCols, val.total[0], powersim.DefaultConfig())
	row.HierMRE = hierRes.MRE

	return row, nil
}
