package psm

import (
	"psmkit/internal/stats"
	"psmkit/internal/trace"
)

// CalibrationPolicy controls the data-dependent state calibration of
// Section IV.
type CalibrationPolicy struct {
	// MaxCV is the "too high standard deviation" gate: states whose
	// coefficient of variation σ/μ exceeds it are candidates for the
	// Hamming-distance regression.
	MaxCV float64
	// MinR is the "strong linear correlation" gate: the regression
	// replaces the constant mean only when |Pearson r| between the per-
	// instant input Hamming distance and the power is at least MinR.
	MinR float64
}

// DefaultCalibrationPolicy returns the thresholds used in the
// reproduction.
func DefaultCalibrationPolicy() CalibrationPolicy {
	return CalibrationPolicy{MaxCV: 0.15, MinR: 0.7}
}

// Calibrate applies the linear-regression refinement to the model's
// data-dependent states. For every state whose power spread is too high
// it fits, over all supporting intervals, the pairs
//
//	x = Hamming distance between the primary-input valuations at t and t-1
//	y = reference power at t
//
// and, when the correlation is strong, replaces the state's constant μ
// with the fitted line.
//
// A state carrying its calibration sums (State.Calib, filled per chain
// by CarryCalibration and pooled by every merge) is fitted from them and
// reads no trace. Any other state walks its intervals over fts and pws —
// the training functional and power traces, indexed as in the
// Intervals, with inputCols the primary-input columns — into the same
// accumulator. fts and pws may be nil when every state carries sums.
//
// The exact-merge contract makes the two paths one: stats.Regression
// keeps its sums exactly and rounds each once at fit time, so sums
// pooled through simplify, join and the streaming and sharded merges —
// in whatever order and grouping those apply — fit bit-identically to
// one walk over the union of the intervals. It returns the number of
// states calibrated.
func Calibrate(m *Model, fts []*trace.Functional, pws []*trace.Power, inputCols []int, policy CalibrationPolicy) int {
	fits, _ := calibrate(m, fts, pws, inputCols, policy)
	return fits
}

// calibrate is Calibrate, also returning the number of per-instant
// samples it walked (0 when every candidate state carried its sums).
func calibrate(m *Model, fts []*trace.Functional, pws []*trace.Power, inputCols []int, policy CalibrationPolicy) (fits, walked int) {
	var hds [][]float64 // per-trace input Hamming distances, computed lazily
	var walk stats.Regression
	for _, s := range m.States {
		if s.Power.N < 3 || s.Power.CoefficientOfVariation() <= policy.MaxCV {
			continue
		}
		acc := s.Calib
		if acc == nil {
			walk = stats.Regression{}
			for _, iv := range s.Intervals {
				if iv.Trace < 0 || iv.Trace >= len(fts) || iv.Trace >= len(pws) {
					continue
				}
				if hds == nil {
					hds = make([][]float64, len(fts))
				}
				if hds[iv.Trace] == nil {
					hds[iv.Trace] = fts[iv.Trace].InputHammingDistance(inputCols)
				}
				walked += addInterval(&walk, iv, hds[iv.Trace], pws[iv.Trace].Values)
			}
			acc = &walk
		}
		if acc.N() < 3 {
			continue
		}
		fit, err := acc.Fit()
		if err != nil {
			continue
		}
		if abs(fit.R) >= policy.MinR {
			f := fit
			s.Fit = &f
			fits++
		}
	}
	return fits, walked
}

// CarryCalibration fills every state of chain c with the exact
// calibration sums of its supporting instants, read from trace c.Trace's
// per-instant series: hd its primary-input Hamming distance (exactly
// trace.Functional.InputHammingDistance — 0 at instant 0) and power its
// reference power. Models built from such chains calibrate from the
// pooled sums, without the series. The streaming engine fills each
// session's chain once, from the series it accumulated record by record
// (its Hamming distances are stored as integer bit counts).
func CarryCalibration[H uint32 | float64](c *Chain, hd []H, power []float64) {
	for _, s := range c.States {
		s.Calib = &stats.Regression{}
		for _, iv := range s.Intervals {
			if iv.Trace == c.Trace {
				addInterval(s.Calib, iv, hd, power)
			}
		}
	}
}

// addInterval adds the (hd[t], power[t]) pairs of one interval, clipped
// to the series, to acc and returns how many it added.
func addInterval[H uint32 | float64](acc *stats.Regression, iv Interval, hd []H, power []float64) int {
	stop := iv.Stop
	if stop >= len(hd) {
		stop = len(hd) - 1
	}
	if stop >= len(power) {
		stop = len(power) - 1
	}
	for t := iv.Start; t <= stop; t++ {
		acc.Add(float64(hd[t]), power[t])
	}
	if stop < iv.Start {
		return 0
	}
	return stop - iv.Start + 1
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
