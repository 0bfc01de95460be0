package experiment

import (
	"psmkit/internal/pipeline"
	"psmkit/internal/powersim"
	"psmkit/internal/stats"
	"psmkit/internal/testbench"
	"psmkit/internal/trace"
)

// Baselines puts the PSM's accuracy in context against two stateless
// power models trained on the same data:
//
//   - constant: the average power of the training set (the crudest
//     spreadsheet estimate);
//   - global regression: one linear model power = a + b·HD(inputs) fitted
//     over the whole training set — the paper's calibration idea without
//     the state machine.
//
// The gap between these and the PSM quantifies what the mined temporal
// structure itself contributes.
type BaselineRow struct {
	IP            string
	ConstantMRE   float64
	RegressionMRE float64
	PSMMRE        float64
}

// fitConstant pools the training power into its mean.
func fitConstant(pws []*trace.Power) float64 {
	var mo stats.Moments
	for _, pw := range pws {
		mo.AddAll(pw.Values)
	}
	return mo.Mean()
}

// fitGlobalRegression fits power = a + b·HD(inputs) over all training
// traces. Falls back to the constant model when the regression is
// degenerate.
func fitGlobalRegression(fts []*trace.Functional, pws []*trace.Power, inputCols []int) stats.LinearFit {
	var xs, ys []float64
	for i, ft := range fts {
		hds := ft.InputHammingDistance(inputCols)
		for t := 0; t < ft.Len() && t < pws[i].Len(); t++ {
			xs = append(xs, hds[t])
			ys = append(ys, pws[i].Values[t])
		}
	}
	fit, err := stats.LinearRegression(xs, ys)
	if err != nil {
		return stats.LinearFit{Intercept: fitConstant(pws)}
	}
	return fit
}

// evalBaseline computes the MRE of a per-instant estimator on a
// validation set.
func evalBaseline(fts []*trace.Functional, pws []*trace.Power, estimate func(ft *trace.Functional, t int, hd float64) float64, inputCols []int) float64 {
	var errSum float64
	var n int
	for i, ft := range fts {
		hds := ft.InputHammingDistance(inputCols)
		est := make([]float64, ft.Len())
		for t := 0; t < ft.Len(); t++ {
			est[t] = estimate(ft, t, hds[t])
		}
		m := ft.Len()
		if pws[i].Len() < m {
			m = pws[i].Len()
		}
		errSum += stats.MeanRelativeError(est[:m], pws[i].Values[:m]) * float64(m)
		n += m
	}
	if n == 0 {
		return 0
	}
	return errSum / float64(n)
}

// BaselinesFor trains the PSM and both baselines on the IP's short-TS and
// evaluates all three on the same traces (the Table II protocol).
func BaselinesFor(c IPCase, scale float64, cfg pipeline.Config) (BaselineRow, error) {
	ts, err := GenerateTraces(c, scaled(c.ShortTS, scale), Pieces, testbench.Options{Seed: c.Seed})
	if err != nil {
		return BaselineRow{}, err
	}
	flow, err := BuildModel(ts, cfg)
	if err != nil {
		return BaselineRow{}, err
	}
	psmMRE, _ := ValidateMRE(flow.Model, ts, powersim.DefaultConfig())

	mean := fitConstant(ts.PWs)
	constMRE := evalBaseline(ts.FTs, ts.PWs, func(_ *trace.Functional, _ int, _ float64) float64 {
		return mean
	}, ts.InputCols)

	fit := fitGlobalRegression(ts.FTs, ts.PWs, ts.InputCols)
	regMRE := evalBaseline(ts.FTs, ts.PWs, func(_ *trace.Functional, _ int, hd float64) float64 {
		return fit.Predict(hd)
	}, ts.InputCols)

	return BaselineRow{
		IP:            c.Name,
		ConstantMRE:   constMRE,
		RegressionMRE: regMRE,
		PSMMRE:        psmMRE,
	}, nil
}
