// Package hierarchy implements the paper's stated future work (Section
// VII): hierarchical PSMs that distinguish among IP subcomponents.
//
// The flat flow of package psm fails on IPs like Camellia because the
// switching activity is "distributed among subcomponents that present
// power behaviours poorly correlated to each other" and invisible from
// the PI/PO boundary. The hierarchical extension fixes both halves of the
// problem:
//
//   - observability: cores implementing hdl.Probed expose their
//     subcomponent-boundary signals, and traces are captured over the
//     extended schema (PIs + POs + probes);
//   - attribution: the power estimator books every element's consumption
//     to its subcomponent (power.Estimator.Classify), giving one
//     reference power trace per subcomponent.
//
// One PSM model is then mined per subcomponent — all against the same
// proposition dictionary, each against its own power trace — and the
// hierarchical simulator runs the per-subcomponent trackers in lock-step,
// estimating total power as the sum of the subcomponent estimates.
package hierarchy

import (
	"context"
	"fmt"
	"sort"

	"psmkit/internal/hdl"
	"psmkit/internal/logic"
	"psmkit/internal/mining"
	"psmkit/internal/pipeline"
	"psmkit/internal/powersim"
	"psmkit/internal/psm"
	"psmkit/internal/stats"
	"psmkit/internal/trace"
)

// ProbedSchema returns the extended signal set of a probed core: the
// PI/PO schema followed by the probe signals.
func ProbedSchema(core hdl.Probed) []trace.Signal {
	sigs := trace.CoreSchema(core)
	for _, p := range core.Probes() {
		sigs = append(sigs, trace.Signal{Name: p.Name, Width: p.Width})
	}
	return sigs
}

// CaptureProbed returns a functional trace over the extended schema and
// an observer that appends one row per cycle, reading the probes from the
// core after each step.
func CaptureProbed(core hdl.Probed) (*trace.Functional, hdl.Observer) {
	sigs := ProbedSchema(core)
	f := trace.NewFunctional(sigs)
	names := hdl.SortedPortNames(core)
	obs := func(_ int, in, out hdl.Values) {
		row := make([]logic.Vector, 0, len(sigs))
		for _, n := range names {
			if v, ok := in[n]; ok {
				row = append(row, v)
			} else {
				row = append(row, out[n])
			}
		}
		probes := core.ProbeValues()
		for _, p := range core.Probes() {
			row = append(row, probes[p.Name])
		}
		f.Append(row)
	}
	return f, obs
}

// SubModel is the PSM model of one subcomponent.
type SubModel struct {
	Group string
	Model *psm.Model
}

// Model is a hierarchical PSM: one mined sub-model per subcomponent, all
// sharing the proposition dictionary of the extended (probed) schema.
type Model struct {
	Subs []SubModel
}

// States returns the total state count across subcomponents.
func (m *Model) States() int {
	n := 0
	for _, s := range m.Subs {
		n += s.Model.NumStates()
	}
	return n
}

// Build mines one PSM model per subcomponent. fts are training traces
// over the probed schema; pws maps each subcomponent to its per-trace
// power traces (as produced by power.Estimator.Classify + GroupTrace);
// inputCols are the primary-input columns of the extended schema.
// Subcomponents whose power trace is all-zero (e.g. an unused "io" group)
// are skipped. cfg is the flat flow's: mining fans out over
// cfg.Parallelism() workers, and SkipCalibration leaves every sub-model
// uncalibrated.
func Build(fts []*trace.Functional, pws map[string][]*trace.Power, inputCols []int, cfg pipeline.Config) (*Model, error) {
	if len(fts) == 0 {
		return nil, fmt.Errorf("hierarchy: no training traces")
	}
	dict, pts, err := mining.MineParallel(context.Background(), fts, cfg.Mining, cfg.Parallelism())
	if err != nil {
		return nil, err
	}
	groups := make([]string, 0, len(pws))
	for g := range pws {
		groups = append(groups, g)
	}
	sort.Strings(groups)

	m := &Model{}
	for _, g := range groups {
		gp := pws[g]
		if len(gp) != len(fts) {
			return nil, fmt.Errorf("hierarchy: group %q has %d power traces, want %d", g, len(gp), len(fts))
		}
		if allZero(gp) {
			continue
		}
		var chains []*psm.Chain
		for i, pt := range pts {
			c, err := psm.Generate(dict, pt, gp[i], i)
			if err != nil {
				return nil, fmt.Errorf("hierarchy: group %q trace %d: %w", g, i, err)
			}
			chains = append(chains, psm.Simplify(c, cfg.Merge))
		}
		model := psm.Join(chains, cfg.Merge)
		if !cfg.SkipCalibration {
			psm.Calibrate(model, fts, gp, inputCols, cfg.Calibration)
		}
		m.Subs = append(m.Subs, SubModel{Group: g, Model: model})
	}
	if len(m.Subs) == 0 {
		return nil, fmt.Errorf("hierarchy: every subcomponent's power trace is zero")
	}
	return m, nil
}

// Simulator runs one tracker per subcomponent in lock-step; the total
// estimate is the sum of the subcomponent estimates.
type Simulator struct {
	trackers []*powersim.Simulator
}

// NewSimulator builds the per-subcomponent trackers.
func NewSimulator(m *Model, inputCols []int, cfg powersim.Config) *Simulator {
	s := &Simulator{}
	for _, sub := range m.Subs {
		s.trackers = append(s.trackers, powersim.New(sub.Model, inputCols, cfg))
	}
	return s
}

// Step consumes one extended-schema valuation and returns the total power
// estimate.
func (s *Simulator) Step(row []logic.Vector) float64 {
	var sum float64
	for _, t := range s.trackers {
		sum += t.Step(row)
	}
	return sum
}

// Results returns the per-subcomponent tracker metrics, in Build order.
func (s *Simulator) Results() []*powersim.Result {
	out := make([]*powersim.Result, len(s.trackers))
	for i, t := range s.trackers {
		out[i] = t.Result()
	}
	return out
}

// Run replays a trace through a fresh hierarchical simulator and, when a
// total reference power trace is supplied, computes the MRE against it.
func Run(m *Model, ft *trace.Functional, inputCols []int, ref *trace.Power, cfg powersim.Config) *powersim.Result {
	sim := NewSimulator(m, inputCols, cfg)
	est := make([]float64, 0, ft.Len())
	for t := 0; t < ft.Len(); t++ {
		est = append(est, sim.Step(ft.Row(t)))
	}
	res := &powersim.Result{Estimates: est, Instants: ft.Len()}
	for _, r := range sim.Results() {
		res.Predictions += r.Predictions
		res.WrongPredictions += r.WrongPredictions
		res.UnsyncedInstants += r.UnsyncedInstants
	}
	if ref != nil {
		n := ft.Len()
		if ref.Len() < n {
			n = ref.Len()
		}
		res.MRE = stats.MeanRelativeError(est[:n], ref.Values[:n])
	}
	return res
}

func allZero(pws []*trace.Power) bool {
	for _, pw := range pws {
		for _, v := range pw.Values {
			if v != 0 {
				return false
			}
		}
	}
	return true
}
