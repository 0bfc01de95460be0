// Package stats implements the statistical machinery the PSM flow depends
// on: streaming moment accumulators (Welford), exact pooling of moments for
// state merging, the Student-t distribution (via the regularized incomplete
// beta function), Welch's two-sample t-test (mergeability Case 2 of the
// paper), the one-sample t-test against a single observation (Case 3),
// a table of critical |t| that settles both without their p-values,
// and Pearson correlation and least-squares linear regression over an
// exact, mergeable accumulator (Hamming-distance power calibration).
//
// Everything is implemented from first principles on top of the standard
// library, since the flow must run offline with no external dependencies.
package stats

import (
	"errors"
	"math"
)

// Moments accumulates count, sum and sum of squares of a sample. It is the
// canonical representation of a PSM state's power attributes: mean and
// standard deviation are derived on demand, and two Moments can be pooled
// exactly — which is how simplify/join recompute μ and σ of merged states
// without re-reading the power trace.
type Moments struct {
	N     int     // number of observations
	Sum   float64 // Σx
	SumSq float64 // Σx²
}

// Add incorporates one observation.
func (m *Moments) Add(x float64) {
	m.N++
	m.Sum += x
	m.SumSq += x * x
}

// AddAll incorporates a slice of observations.
func (m *Moments) AddAll(xs []float64) {
	for _, x := range xs {
		m.Add(x)
	}
}

// Merge pools another accumulator into m. Pooling is exact: the result is
// identical to having accumulated both samples into a single Moments.
func (m *Moments) Merge(o Moments) {
	m.N += o.N
	m.Sum += o.Sum
	m.SumSq += o.SumSq
}

// Mean returns the sample mean, or 0 for an empty sample.
func (m Moments) Mean() float64 {
	if m.N == 0 {
		return 0
	}
	return m.Sum / float64(m.N)
}

// Variance returns the unbiased sample variance (divisor n-1), or 0 when
// fewer than two observations are available. Negative values produced by
// floating-point cancellation are clamped to 0.
func (m Moments) Variance() float64 {
	if m.N < 2 {
		return 0
	}
	n := float64(m.N)
	v := (m.SumSq - m.Sum*m.Sum/n) / (n - 1)
	if v < 0 {
		return 0
	}
	return v
}

// StdDev returns the unbiased sample standard deviation.
func (m Moments) StdDev() float64 { return math.Sqrt(m.Variance()) }

// CoefficientOfVariation returns σ/|μ|, or +Inf when the mean is zero and
// the deviation is not. It is the paper's "too high standard deviation"
// gate for data-dependent state calibration.
func (m Moments) CoefficientOfVariation() float64 {
	mu := m.Mean()
	sd := m.StdDev()
	if mu == 0 {
		if sd == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return sd / math.Abs(mu)
}

// MomentsOf accumulates xs into a fresh Moments.
func MomentsOf(xs []float64) Moments {
	var m Moments
	m.AddAll(xs)
	return m
}

// --- Student's t distribution ----------------------------------------------

// lnGamma is the natural log of the Gamma function (Lanczos approximation,
// accurate to ~1e-14 for positive arguments — ample for p-values).
func lnGamma(x float64) float64 {
	// Lanczos g=7, n=9 coefficients.
	coef := [...]float64{
		0.99999999999980993,
		676.5203681218851,
		-1259.1392167224028,
		771.32342877765313,
		-176.61502916214059,
		12.507343278686905,
		-0.13857109526572012,
		9.9843695780195716e-6,
		1.5056327351493116e-7,
	}
	if x < 0.5 {
		// reflection formula
		return math.Log(math.Pi/math.Sin(math.Pi*x)) - lnGamma(1-x)
	}
	x--
	a := coef[0]
	t := x + 7.5
	for i := 1; i < len(coef); i++ {
		a += coef[i] / (x + float64(i))
	}
	return 0.5*math.Log(2*math.Pi) + (x+0.5)*math.Log(t) - t + math.Log(a)
}

// regIncBeta computes the regularized incomplete beta function I_x(a, b)
// using the continued-fraction expansion (Numerical Recipes' betacf).
func regIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lbeta := lnGamma(a+b) - lnGamma(a) - lnGamma(b) + a*math.Log(x) + b*math.Log(1-x)
	front := math.Exp(lbeta)
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpMin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap //psmlint:ignore nan-guard qap = a+1 >= 1 for every t-test caller
	if math.Abs(d) < fpMin {
		d = fpMin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		mf := float64(m)
		aa := mf * (b - mf) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpMin {
			d = fpMin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpMin {
			c = fpMin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + mf) * (qab + mf) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpMin {
			d = fpMin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpMin {
			c = fpMin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// StudentTCDF returns P(T ≤ t) for a Student-t variable with df degrees of
// freedom. df may be fractional (Welch–Satterthwaite). It panics if df <= 0.
func StudentTCDF(t, df float64) float64 {
	if df <= 0 {
		panic("stats: nonpositive degrees of freedom")
	}
	if math.IsInf(t, 1) {
		return 1
	}
	if math.IsInf(t, -1) {
		return 0
	}
	x := df / (df + t*t)
	p := 0.5 * regIncBeta(df/2, 0.5, x)
	if t > 0 {
		return 1 - p
	}
	return p
}

// TwoSidedTPValue returns the two-sided p-value for a t statistic with df
// degrees of freedom. Up to critDFs (the degrees of freedom the critical
// table tabulates) it is 2·(1 − StudentTCDF(|t|, df)); beyond, where
// that evaluation cancels, it is tTailLargeDF.
func TwoSidedTPValue(t, df float64) float64 {
	if df > critDFs {
		return tTailLargeDF(math.Abs(t), df)
	}
	p := 2 * (1 - StudentTCDF(math.Abs(t), df))
	if p > 1 {
		p = 1
	}
	if p < 0 {
		p = 0
	}
	return p
}

// tTailLargeDF returns P(|T| > t) for t ≥ 0 at df > critDFs degrees of
// freedom: the regularized incomplete beta I_x(a, ½) at a = df/2,
// x = df/(df+t²). regIncBeta loses accuracy there as df grows:
// lnGamma(a+½) − lnGamma(a) cancels, x rounds to 1 once t²/df < 1e-16,
// and its continued fraction cancels while x is near 1. Here ln B(a, ½)
// comes from lnGammaHalfRem and x from t²/df without rounding through
// 1 − x. For x > ½ (t² < df) P is DiDonato and Morris's expansion for
// large a and small b (BGRAT, ACM TOMS 18(3), 1992, eqs. 9–9.6): the
// normal tail erfc(√u) at u = (a − ¼)·ln(1 + t²/df), corrected in
// powers of ln(x)²/(4(a − ¼)²), which converges in a few terms there.
// For x ≤ ½, where P < 2^−a, the continued fraction converges fast and
// nothing cancels. Over df from 256 to 1e13, P stayed within 2.0e-13
// (relative) of a 40-digit reference wherever P > 1e-300.
func tTailLargeDF(t, df float64) float64 {
	const b = 0.5
	a := df / 2
	//psmlint:ignore nan-guard df > critDFs, TwoSidedTPValue's condition for calling
	r := t * t / df // t = ±Inf gives x = 0 and P = 0
	if r >= 1 {
		// I_x(a, b) = x^a·(1−x)^b·betaCF(a, b, x) / (a·B(a, ½)), and
		// ln(a·B(a, ½)) = ½·ln(π·a) − lnGammaHalfRem(a).
		x := 1 / (1 + r)
		return math.Exp(a*math.Log(x)+b*math.Log1p(-x)-0.5*math.Log(math.Pi*a)+lnGammaHalfRem(a)) * betaCF(a, b, x)
	}
	T := a - 0.25 // a + (b−1)/2
	lx := -math.Log1p(r)
	u := -T * lx
	h := math.Sqrt(u/math.Pi) * math.Exp(-u) // u^b·e^−u / Γ(b)
	J := math.Erfc(math.Sqrt(u))             // J_0 = Γ(b, u)/Γ(b)
	sum := J
	lx2 := lx * lx / 4
	lxp := 1.0
	t4 := 4 * T * T
	b2n := b
	for n := 1; n < len(bgratP); n++ {
		//psmlint:ignore nan-guard t4 = 4(a − ¼)² > 0 at df > critDFs
		J = (b2n*(b2n+1)*J + (u+b2n+1)*lxp*h) / t4
		lxp *= lx2
		b2n += 2
		term := bgratP[n] * J
		sum += term
		if math.Abs(term) <= 0x1p-53*sum {
			break
		}
	}
	// Γ(a+½)/(Γ(a)·√(a − ¼)) = exp(lnGammaHalfRem(a) − ½·ln(1 − 1/(4a)))
	//psmlint:ignore nan-guard a = df/2 > 0 at df > critDFs
	p := math.Exp(lnGammaHalfRem(a)-0.5*math.Log1p(-0.25/a)) * sum
	if p > 1 {
		p = 1
	}
	return p
}

// bgratP holds the coefficients p_n of BGRAT's expansion at b = ½
// (DiDonato and Morris, eq. 9.4):
//
//	p_0 = 1,  p_n = (b−1)/(2n+1)! + (1/n)·Σ_{m=1}^{n−1} (m·b − n)·p_{n−m}/(2m+1)!
var bgratP = func() [20]float64 {
	const b = 0.5
	var oddFact [20]float64 // (2m+1)!
	oddFact[0] = 1
	for m := 1; m < len(oddFact); m++ {
		oddFact[m] = oddFact[m-1] * float64(2*m) * float64(2*m+1)
	}
	var p [20]float64
	p[0] = 1
	for n := 1; n < len(p); n++ {
		for m := 1; m < n; m++ {
			p[n] += (float64(m)*b - float64(n)) * p[n-m] / oddFact[m]
		}
		p[n] = p[n]/float64(n) + (b-1)/oddFact[n]
	}
	return p
}()

// lnGammaHalfRem returns lnΓ(a+½) − lnΓ(a) − ½·ln a from its asymptotic
// series in 1/a. At a ≥ 128 the first omitted term, −31/(18432·a⁹), is
// below 2e-22.
func lnGammaHalfRem(a float64) float64 {
	z := 1 / (a * a)
	return -(1 - z*(1.0/24-z*(1.0/80-z*(17.0/1792)))) / (8 * a)
}

// --- hypothesis tests --------------------------------------------------------

// ErrInsufficientData is returned when a test cannot be computed from the
// supplied sample sizes.
var ErrInsufficientData = errors.New("stats: insufficient data for test")

// WelchT returns the statistic and degrees of freedom of Welch's
// unequal-variance two-sample t-test on two summarized samples: Welch's
// t and the Welch–Satterthwaite df. This is mergeability Case 2 of the
// paper: two until-pattern states are mergeable when the test fails to
// reject equality of means, TwoSidedTPValue(t, df) >= alpha.
//
// Both samples need at least two observations. When both variances are zero
// the test degenerates: t is 0 if the means coincide and ±Inf otherwise
// (P 1 or 0), with the pooled df.
func WelchT(a, b Moments) (t, df float64, err error) {
	if a.N < 2 || b.N < 2 {
		return 0, 0, ErrInsufficientData
	}
	va, vb := a.Variance(), b.Variance()
	na, nb := float64(a.N), float64(b.N)
	se2 := va/na + vb/nb
	diff := a.Mean() - b.Mean()
	df = na + nb - 2
	if se2 == 0 {
		return degenerateT(diff), df, nil
	}
	// Welch–Satterthwaite degrees of freedom. With near-denormal
	// variances the denominator can underflow to 0 while se2 does not;
	// fall back to the pooled df instead of propagating Inf/NaN into the
	// t distribution.
	if den := va*va/(na*na*(na-1)) + vb*vb/(nb*nb*(nb-1)); den > 0 {
		df = se2 * se2 / den
	}
	if df < 1 {
		df = 1
	}
	return diff / math.Sqrt(se2), df, nil
}

// OneSampleT returns the statistic and degrees of freedom of the
// one-sample t-test of whether a single observation x is consistent with
// the sample summarized by a. This is mergeability Case 3 of the paper
// (until-state vs next-state): the statistic is a prediction-interval
// test,
//
//	t = (x - mean) / (s * sqrt(1 + 1/n)),  df = n - 1.
//
// The sample needs at least two observations. Zero sample variance
// degenerates like WelchT.
func OneSampleT(a Moments, x float64) (t, df float64, err error) {
	if a.N < 2 {
		return 0, 0, ErrInsufficientData
	}
	n := float64(a.N)
	s := a.StdDev()
	diff := x - a.Mean()
	df = n - 1
	if s == 0 {
		return degenerateT(diff), df, nil
	}
	return diff / (s * math.Sqrt(1+1/n)), df, nil
}

// degenerateT is the statistic of a test whose standard error is zero:
// 0 when the means coincide, ±Inf otherwise. TwoSidedTPValue maps them
// to P = 1 and P = 0.
func degenerateT(diff float64) float64 {
	if diff == 0 {
		return 0
	}
	return math.Inf(sign(diff))
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// --- correlation and regression ---------------------------------------------

// LinearFit holds a least-squares line y = Intercept + Slope*x together
// with its Pearson correlation on the fitted data.
type LinearFit struct {
	Slope     float64
	Intercept float64
	R         float64 // Pearson correlation of the fitted sample
}

// Predict evaluates the fitted line at x.
func (f LinearFit) Predict(x float64) float64 { return f.Intercept + f.Slope*x }

// LinearRegression fits y = a + b*x by ordinary least squares. It returns
// an error when fewer than two points are supplied, x is constant (the
// slope would be undefined) or a sample is not finite. It is
// Regression.Fit over the pairs.
func LinearRegression(xs, ys []float64) (LinearFit, error) {
	if len(xs) != len(ys) {
		panic("stats: LinearRegression sample length mismatch")
	}
	r := regressionOf(xs, ys)
	return r.Fit()
}

func regressionOf(xs, ys []float64) Regression {
	var r Regression
	for i := range xs {
		r.Add(xs[i], ys[i])
	}
	return r
}

// MeanRelativeError returns the mean of |est-ref|/|ref| over the paired
// series, skipping instants where the reference is exactly zero (they carry
// no relative information). This is the paper's MRE accuracy metric.
func MeanRelativeError(est, ref []float64) float64 {
	if len(est) != len(ref) {
		panic("stats: MeanRelativeError length mismatch")
	}
	var sum float64
	var n int
	for i := range ref {
		if ref[i] == 0 {
			continue
		}
		sum += math.Abs(est[i]-ref[i]) / math.Abs(ref[i])
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
