package stats

import (
	"math"
	"sync"
)

// A two-sided t-test at level α accepts iff its p-value P ≥ α. P falls
// as |t| rises and, at fixed |t|, as the degrees of freedom rise, so the
// test accepts iff |t| lies below a critical value that falls with df.
// CriticalT tabulates those critical values once per α and settles the
// test from |t| alone, without the regularized incomplete beta function
// behind TwoSidedTPValue.
const (
	// critDFs is the last integer df tabulated (1..critDFs).
	critDFs = 256
	// critDFMax is the largest df a CriticalT decides. TwoSidedTPValue
	// loses accuracy as df grows (lnGamma of df/2 cancels), and past a
	// few million df its computed critical value leaves the band the
	// table assumes; 1e5 keeps an order of magnitude of slack at every
	// α in the tabulated range.
	critDFMax = 1e5
	// critAlphaMin and critAlphaMax bound the α a CriticalT tabulates.
	// Nearer 0, P's absolute rounding (≈1e-16) becomes a large share of
	// α; nearer 1, P's computed critical value stops falling with df
	// well inside critDFMax. Any other α is settled exactly.
	critAlphaMin = 1e-9
	critAlphaMax = 0.9
	// critMargin is the relative distance |t| must keep from a critical
	// value for the table to decide. It absorbs the rounding noise of
	// TwoSidedTPValue itself, which makes its computed critical value
	// at a fractional df not quite bracketed by its neighbours'.
	critMargin = 1e-9
)

// CriticalT decides two-sided t-tests at one significance level α from
// a table of critical |t|. Its verdict, when it gives one, is exactly
// TwoSidedTPValue(t, df) >= α. A CriticalT is immutable and safe for
// concurrent use.
type CriticalT struct {
	// crit[k] (k = 1..critDFs) is the least |t| whose computed
	// TwoSidedTPValue at k degrees of freedom falls below α; nil when α
	// is outside [critAlphaMin, critAlphaMax].
	crit []float64
	// normal is the critical |t| of the normal limit, a lower bound on
	// the critical value at every df.
	normal float64
}

var criticalTables sync.Map // math.Float64bits(α) → *CriticalT

// CriticalTable returns the table for alpha, building it on first use
// (a few milliseconds; every later call is a map load).
func CriticalTable(alpha float64) *CriticalT {
	key := math.Float64bits(alpha)
	if c, ok := criticalTables.Load(key); ok {
		return c.(*CriticalT)
	}
	c, _ := criticalTables.LoadOrStore(key, newCriticalT(alpha))
	return c.(*CriticalT)
}

// newCriticalT tabulates the critical values for alpha by bisection on
// TwoSidedTPValue itself, so the table reproduces that function's
// verdicts, rounding included.
func newCriticalT(alpha float64) *CriticalT {
	c := &CriticalT{}
	if !(alpha >= critAlphaMin && alpha <= critAlphaMax) {
		return c
	}
	c.crit = make([]float64, critDFs+1)
	hi := 1.0
	for k := 1; k <= critDFs; k++ {
		df := float64(k)
		c.crit[k] = lowestBelow(func(t float64) bool { return TwoSidedTPValue(t, df) < alpha }, hi)
		hi = c.crit[k]
	}
	c.normal = lowestBelow(func(t float64) bool { return math.Erfc(t/math.Sqrt2) < alpha }, hi)
	return c
}

// lowestBelow returns the least t ≥ 0 at which below(t) holds, for a
// below that is false at 0 and holds from some point on. hi is the
// first guess of such a point; it doubles until below holds there.
func lowestBelow(below func(float64) bool, hi float64) float64 {
	lo := 0.0
	for !below(hi) {
		lo, hi = hi, 2*hi
	}
	for {
		mid := lo + (hi-lo)/2
		if mid <= lo || mid >= hi {
			return hi
		}
		if below(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
}

// Decide reports whether the two-sided t-test of t at df degrees of
// freedom accepts, i.e. whether TwoSidedTPValue(t, df) >= α. decided is
// false when the table cannot tell and the caller must compute P:
//
//   - |t| lies within critMargin of the critical band for df — at an
//     integer df ≤ critDFs its critical value; at a fractional one the
//     band between its integer neighbours' critical values; past
//     critDFs the band from the normal limit to the last critical value;
//   - t is ±Inf or NaN;
//   - df is below 1, beyond critDFMax or NaN;
//   - α is outside the tabulated range (α ∉ (0, 1) among them).
func (c *CriticalT) Decide(t, df float64) (accept, decided bool) {
	at := math.Abs(t)
	if c.crit == nil || !(df >= 1 && df <= critDFMax) || !(at <= math.MaxFloat64) {
		return false, false
	}
	var lo, hi float64 // the critical value at df lies in [lo, hi]
	if df <= critDFs {
		k := int(df)
		hi = c.crit[k]
		lo = hi
		if df > float64(k) {
			lo = c.crit[k+1]
		}
	} else {
		lo, hi = c.normal, c.crit[critDFs]
	}
	switch {
	case at < lo*(1-critMargin):
		return true, true
	case at > hi*(1+critMargin):
		return false, true
	}
	return false, false
}
