// Package experiment regenerates the paper's evaluation (Section VI): the
// benchmark characterization of Table I, the PSM-generation results of
// Table II (short-TS and long-TS) and the performance / cross-validation
// results of Table III. The cmd/psmreport tool and the repository-root
// benchmarks are thin wrappers over this package.
package experiment

import (
	"context"
	"fmt"
	"time"

	"psmkit/internal/hdl"
	"psmkit/internal/ip"
	"psmkit/internal/logic"
	"psmkit/internal/pipeline"
	"psmkit/internal/power"
	"psmkit/internal/powersim"
	"psmkit/internal/psm"
	"psmkit/internal/stats"
	"psmkit/internal/testbench"
	"psmkit/internal/trace"
)

// IPCase describes one benchmark IP and its testset sizes (Table II's TS
// column uses the paper's exact trace lengths).
type IPCase struct {
	Name    string
	New     func() hdl.Core
	ShortTS int
	LongTS  int
	Seed    int64
}

// Cases returns the four benchmarks of Table I with the paper's testset
// lengths.
func Cases() []IPCase {
	return []IPCase{
		{Name: "RAM", New: func() hdl.Core { return ip.NewRAM() }, ShortTS: 34130, LongTS: 500000, Seed: 1101},
		{Name: "MultSum", New: func() hdl.Core { return ip.NewMultSum() }, ShortTS: 12002, LongTS: 500000, Seed: 2202},
		{Name: "AES", New: func() hdl.Core { return ip.NewAES128() }, ShortTS: 16504, LongTS: 500000, Seed: 3303},
		{Name: "Camellia", New: func() hdl.Core { return ip.NewCamellia128() }, ShortTS: 78004, LongTS: 500000, Seed: 4404},
	}
}

// CaseByName returns the named benchmark.
func CaseByName(name string) (IPCase, error) {
	for _, c := range Cases() {
		if c.Name == name {
			return c, nil
		}
	}
	return IPCase{}, fmt.Errorf("experiment: unknown IP %q", name)
}

// Pieces is the number of training traces a testset is split into; the
// paper extracts one PSM per functional trace and combines them, so the
// join/combination machinery is exercised by every experiment.
const Pieces = 4

// TraceSet bundles the training (or validation) traces of one IP.
type TraceSet struct {
	Case      IPCase
	FTs       []*trace.Functional
	PWs       []*trace.Power
	InputCols []int
	// PXTime is the wall time spent producing the reference power traces
	// (simulation plus gate-level-style power estimation) — the paper's
	// "PX" column.
	PXTime time.Duration
}

// Instants returns the total trace length.
func (ts *TraceSet) Instants() int {
	n := 0
	for _, ft := range ts.FTs {
		n += ft.Len()
	}
	return n
}

// GenerateTraces simulates the IP under its stimulus program, producing
// `pieces` functional traces with reference power traces. The wall time of
// simulation+estimation is accumulated into PXTime.
func GenerateTraces(c IPCase, total, pieces int, opts testbench.Options) (*TraceSet, error) {
	if pieces < 1 || total < pieces {
		return nil, fmt.Errorf("experiment: bad split %d/%d", total, pieces)
	}
	ts := &TraceSet{Case: c}
	per := total / pieces
	for p := 0; p < pieces; p++ {
		n := per
		if p == pieces-1 {
			n = total - per*(pieces-1)
		}
		core := c.New()
		sim := hdl.NewSimulator(core)
		est := power.NewEstimator(core, power.DefaultConfig())
		ft, obs := trace.Capture(core)
		sim.Observe(obs)
		sim.Observe(est.Observer())
		pOpts := opts
		pOpts.Seed = opts.Seed + int64(p)*7919
		gen, err := testbench.For(core, pOpts)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := testbench.Drive(sim, gen, n); err != nil {
			return nil, err
		}
		ts.PXTime += time.Since(start)
		ts.FTs = append(ts.FTs, ft)
		ts.PWs = append(ts.PWs, &trace.Power{Values: est.Trace()})
		if p == 0 {
			ts.InputCols = trace.InputColumns(ft, core)
		}
	}
	return ts, nil
}

// Flow is the result of running the full PSM-generation pipeline on a
// trace set.
type Flow struct {
	Model   *psm.Model
	GenTime time.Duration
}

// DefaultPolicies returns the flow configuration of the paper tables:
// the default policies at one worker, so the "PSMs gen." column times
// the flow single-threaded.
func DefaultPolicies() pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.Workers = 1
	return cfg
}

// BuildModel runs mining → PSMGenerator → simplify → join → calibrate
// (pipeline.BuildModel at cfg.Workers) and times it (the paper's "PSMs
// gen." column).
func BuildModel(ts *TraceSet, cfg pipeline.Config) (*Flow, error) {
	start := time.Now()
	model, err := pipeline.BuildModel(context.Background(), ts.FTs, ts.PWs, ts.InputCols, cfg)
	if err != nil {
		return nil, err
	}
	return &Flow{Model: model, GenTime: time.Since(start)}, nil
}

// ValidateMRE replays every trace of a set through the model and returns
// the instant-weighted mean relative error and the pooled WSP.
func ValidateMRE(model *psm.Model, ts *TraceSet, cfg powersim.Config) (mre, wsp float64) {
	var errSum float64
	var n int
	var wrong, preds, unsynced int
	for i, ft := range ts.FTs {
		res := powersim.Run(model, ft, ts.InputCols, ts.PWs[i], cfg)
		errSum += res.MRE * float64(res.Instants)
		n += res.Instants
		wrong += res.WrongPredictions
		preds += res.Predictions
		unsynced += res.UnsyncedInstants
	}
	if n > 0 {
		mre = errSum / float64(n)
	}
	if preds > 0 {
		wsp = float64(wrong) / float64(preds)
	} else if unsynced > 0 {
		wsp = 1
	}
	return mre, wsp
}

// --- Table I -------------------------------------------------------------------

// TableIRow is one row of Table I (benchmark characteristics).
type TableIRow struct {
	IP       string
	Lines    int     // Go RTL model source lines (the paper counts Verilog lines)
	PIs      int     // primary-input bits
	POs      int     // primary-output bits
	ElabSecs float64 // power-model elaboration ("Syn. time" analogue)
	MemElems int     // memory-element bits
}

// TableI characterizes the four benchmarks.
func TableI() []TableIRow {
	var rows []TableIRow
	for _, c := range Cases() {
		core := c.New()
		est := power.NewEstimator(core, power.DefaultConfig())
		rows = append(rows, TableIRow{
			IP:       c.Name,
			Lines:    ip.SourceLines(c.Name),
			PIs:      hdl.PortWidths(core, hdl.In),
			POs:      hdl.PortWidths(core, hdl.Out),
			ElabSecs: est.ElaborationTime().Seconds(),
			MemElems: hdl.MemoryBits(core),
		})
	}
	return rows
}

// --- Table II ------------------------------------------------------------------

// TableIIRow is one row of Table II (characteristics of the generated
// PSMs).
type TableIIRow struct {
	IP      string
	TS      int
	PXSecs  float64
	GenSecs float64
	States  int
	Trans   int
	MRE     float64
}

// TableIIFor runs the generation experiment for one IP. long selects the
// long-TS testset; scale (0 < scale ≤ 1) shrinks the trace lengths for
// quick runs — the paper tables use scale = 1.
func TableIIFor(c IPCase, long bool, scale float64, cfg pipeline.Config) (TableIIRow, error) {
	total := c.ShortTS
	opts := testbench.Options{Seed: c.Seed}
	if long {
		total = c.LongTS
		opts.Seed = c.Seed + 99991
	}
	total = scaled(total, scale)
	ts, err := GenerateTraces(c, total, Pieces, opts)
	if err != nil {
		return TableIIRow{}, err
	}
	flow, err := BuildModel(ts, cfg)
	if err != nil {
		return TableIIRow{}, err
	}
	mre, _ := ValidateMRE(flow.Model, ts, powersim.DefaultConfig())
	return TableIIRow{
		IP:      c.Name,
		TS:      total,
		PXSecs:  ts.PXTime.Seconds(),
		GenSecs: flow.GenTime.Seconds(),
		States:  flow.Model.NumStates(),
		Trans:   flow.Model.NumTransitions(),
		MRE:     mre,
	}, nil
}

// --- Table III -----------------------------------------------------------------

// TableIIIRow is one row of Table III (simulation performance and
// cross-validated accuracy: PSMs trained on short-TS, validated on
// long-TS).
type TableIIIRow struct {
	IP         string
	IPSimSecs  float64 // functional simulation alone
	CoSimSecs  float64 // functional simulation + PSM tracking
	Overhead   float64 // (CoSim - IPSim) / IPSim
	MRE        float64
	WSP        float64
	PXSecs     float64 // reference power estimation on the same testset
	Speedup    float64 // PXSecs / CoSimSecs: PSM power estimation vs reference
	TrainSecs  float64 // one-off: training-set generation + PSM build
	Validation int     // validation instants
}

// TableIIIFor trains on short-TS and cross-validates on long-TS for one
// IP. The validation stimulus enables stall injection, which only affects
// cores with a stall port (Camellia) — the source of its wrong-state
// predictions, as discussed in Section VI.
func TableIIIFor(c IPCase, scale float64, cfg pipeline.Config) (TableIIIRow, error) {
	trainStart := time.Now()
	ts, err := GenerateTraces(c, scaled(c.ShortTS, scale), Pieces, testbench.Options{Seed: c.Seed})
	if err != nil {
		return TableIIIRow{}, err
	}
	flow, err := BuildModel(ts, cfg)
	if err != nil {
		return TableIIIRow{}, err
	}
	trainTime := time.Since(trainStart)

	n := scaled(c.LongTS, scale)
	valOpts := testbench.Options{Seed: c.Seed + 424243, Stalls: true}

	// Both timed runs are repeated and the minimum taken, interleaved so
	// ambient effects (GC pressure, frequency scaling) hit both equally.
	const reps = 3
	var ipSim, coSim time.Duration
	var tracker *powersim.Simulator
	var estimates []float64
	for r := 0; r < reps; r++ {
		// Run 1 (timed): the IP alone — the paper's "IP sim." column.
		d, err := timeFunctional(c, n, valOpts, nil)
		if err != nil {
			return TableIIIRow{}, err
		}
		if r == 0 || d < ipSim {
			ipSim = d
		}

		// Run 2 (timed): the IP with the PSM tracker in lock-step.
		tracker = powersim.New(flow.Model, ts.InputCols, powersim.DefaultConfig())
		estimates = estimates[:0]
		d, err = timeFunctional(c, n, valOpts, func(row []logic.Vector) {
			estimates = append(estimates, tracker.Step(row))
		})
		if err != nil {
			return TableIIIRow{}, err
		}
		if r == 0 || d < coSim {
			coSim = d
		}
	}

	// Run 3 (untimed for the table, but it is the PX reference): the IP
	// with the power estimator, for the validation reference trace.
	refStart := time.Now()
	core := c.New()
	sim := hdl.NewSimulator(core)
	est := power.NewEstimator(core, power.DefaultConfig())
	sim.Observe(est.Observer())
	gen, err := testbench.For(core, valOpts)
	if err != nil {
		return TableIIIRow{}, err
	}
	if err := testbench.Drive(sim, gen, n); err != nil {
		return TableIIIRow{}, err
	}
	pxTime := time.Since(refStart)

	res := tracker.Result()
	row := TableIIIRow{
		IP:         c.Name,
		IPSimSecs:  ipSim.Seconds(),
		CoSimSecs:  coSim.Seconds(),
		MRE:        stats.MeanRelativeError(estimates, est.Trace()),
		WSP:        res.WSP(),
		PXSecs:     pxTime.Seconds(),
		TrainSecs:  trainTime.Seconds(),
		Validation: n,
	}
	if ipSim > 0 {
		row.Overhead = (coSim - ipSim).Seconds() / ipSim.Seconds()
	}
	if coSim > 0 {
		row.Speedup = pxTime.Seconds() / coSim.Seconds()
	}
	return row, nil
}

// timeFunctional simulates the IP for n cycles and returns the wall time.
// When onRow is non-nil it is called each cycle with the PI/PO valuation
// in schema order (the tracker's input).
func timeFunctional(c IPCase, n int, opts testbench.Options, onRow func([]logic.Vector)) (time.Duration, error) {
	core := c.New()
	sim := hdl.NewSimulator(core)
	if onRow != nil {
		names := hdl.SortedPortNames(core)
		row := make([]logic.Vector, len(names))
		sim.Observe(func(_ int, in, out hdl.Values) {
			for i, name := range names {
				if v, ok := in[name]; ok {
					row[i] = v
				} else {
					row[i] = out[name]
				}
			}
			onRow(row)
		})
	}
	gen, err := testbench.For(core, opts)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := testbench.Drive(sim, gen, n); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

func scaled(n int, scale float64) int {
	if scale <= 0 || scale >= 1 {
		return n
	}
	s := int(float64(n) * scale)
	if s < 50*Pieces {
		s = 50 * Pieces
	}
	return s
}
