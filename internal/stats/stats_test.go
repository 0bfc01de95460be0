package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMomentsBasics(t *testing.T) {
	m := MomentsOf([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if m.N != 8 {
		t.Fatalf("N = %d", m.N)
	}
	if !almostEq(m.Mean(), 5, 1e-12) {
		t.Errorf("Mean = %g", m.Mean())
	}
	// sample variance of this classic set is 32/7
	if !almostEq(m.Variance(), 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %g", m.Variance())
	}
}

func TestMomentsEmptyAndSingle(t *testing.T) {
	var m Moments
	if m.Mean() != 0 || m.Variance() != 0 || m.StdDev() != 0 {
		t.Error("empty moments should be all zero")
	}
	m.Add(3)
	if m.Mean() != 3 || m.Variance() != 0 {
		t.Error("single observation: mean 3, variance 0")
	}
}

func TestMomentsMergeExact(t *testing.T) {
	xs := []float64{1.5, 2.25, 3, -1, 0.5, 9, 2, 2}
	a := MomentsOf(xs[:3])
	b := MomentsOf(xs[3:])
	a.Merge(b)
	all := MomentsOf(xs)
	if a.N != all.N || !almostEq(a.Mean(), all.Mean(), 1e-12) ||
		!almostEq(a.Variance(), all.Variance(), 1e-12) {
		t.Errorf("merged = %+v, direct = %+v", a, all)
	}
}

func TestQuickMergeAssociative(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) < 3 {
			return true
		}
		// bound magnitudes so SumSq stays finite
		for i := range xs {
			if math.IsNaN(xs[i]) || math.IsInf(xs[i], 0) {
				return true
			}
			xs[i] = math.Mod(xs[i], 1e6)
		}
		k := len(xs) / 2
		a, b := MomentsOf(xs[:k]), MomentsOf(xs[k:])
		a.Merge(b)
		all := MomentsOf(xs)
		return a.N == all.N && almostEq(a.Sum, all.Sum, 1e-6*math.Abs(all.Sum)+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCoefficientOfVariation(t *testing.T) {
	m := MomentsOf([]float64{10, 10, 10})
	if m.CoefficientOfVariation() != 0 {
		t.Error("constant sample should have CV 0")
	}
	m2 := MomentsOf([]float64{-1, 1})
	if !math.IsInf(m2.CoefficientOfVariation(), 1) {
		t.Error("zero-mean sample should have CV +Inf")
	}
	m3 := MomentsOf([]float64{9, 11})
	want := m3.StdDev() / 10
	if !almostEq(m3.CoefficientOfVariation(), want, 1e-12) {
		t.Errorf("CV = %g want %g", m3.CoefficientOfVariation(), want)
	}
}

func TestStudentTCDFKnownValues(t *testing.T) {
	// Reference values from standard t tables.
	cases := []struct {
		t, df, want float64
	}{
		{0, 5, 0.5},
		{1.0, 1, 0.75},          // t(1) CDF at 1 is exactly 3/4
		{2.015, 5, 0.95},        // 95th percentile, df=5
		{1.812, 10, 0.95},       // df=10
		{2.228, 10, 0.975},      // df=10 two-sided 5%
		{1.645, 1e6, 0.9500},    // ~normal
		{-2.228, 10, 1 - 0.975}, // symmetry
		{12.706, 1, 0.975},      // df=1 two-sided 5%
		{2.576, 1e6, 0.995},     // ~normal 99%
		{0.6745, 1e6, 0.75},     // normal quartile
		{3.169, 10, 0.995},      // df=10
		{1.330, 18, 0.90},       // df=18
		{math.Inf(1), 7, 1.0},   // +inf
		{math.Inf(-1), 7, 0.0},  // -inf
	}
	for _, c := range cases {
		got := StudentTCDF(c.t, c.df)
		if !almostEq(got, c.want, 5e-4) {
			t.Errorf("StudentTCDF(%g, %g) = %.6f, want %.4f", c.t, c.df, got, c.want)
		}
	}
}

func TestStudentTCDFSymmetry(t *testing.T) {
	f := func(tv float64, dfRaw uint8) bool {
		if math.IsNaN(tv) || math.IsInf(tv, 0) {
			return true
		}
		tv = math.Mod(tv, 50)
		df := float64(dfRaw%60) + 1
		a := StudentTCDF(tv, df)
		b := StudentTCDF(-tv, df)
		return almostEq(a+b, 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStudentTCDFPanicsOnBadDF(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("df<=0 did not panic")
		}
	}()
	StudentTCDF(1, 0)
}

func TestWelchTTestIdenticalSamples(t *testing.T) {
	a := MomentsOf([]float64{5, 6, 7, 5, 6, 7})
	res, err := WelchTTest(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if res.T != 0 || res.P != 1 {
		t.Errorf("identical samples: T=%g P=%g", res.T, res.P)
	}
}

func TestWelchTTestClearlyDifferent(t *testing.T) {
	a := MomentsOf([]float64{1.0, 1.1, 0.9, 1.05, 0.95})
	b := MomentsOf([]float64{9.0, 9.1, 8.9, 9.05, 8.95})
	res, err := WelchTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.P > 1e-6 {
		t.Errorf("distant means should reject: P = %g", res.P)
	}
	if res.T >= 0 {
		t.Errorf("T should be negative (a < b): %g", res.T)
	}
}

// exactSample builds a 10-element sample with exact mean mu and exact
// unbiased sample variance 1: five points at mu-a and five at mu+a with
// a = sqrt(9/10).
func exactSample(mu float64) Moments {
	a := math.Sqrt(0.9)
	var m Moments
	for i := 0; i < 5; i++ {
		m.Add(mu - a)
		m.Add(mu + a)
	}
	return m
}

func TestWelchTTestReferenceValue(t *testing.T) {
	// Two samples of n=10 with s²=1 each give t = d/sqrt(0.2) and, since the
	// variances are equal, Welch–Satterthwaite df = 18. Choosing the mean
	// difference d so that t hits the 97.5th percentile of t(18)
	// (t = 2.100922) makes the two-sided p-value exactly 0.05.
	d := 2.100922 * math.Sqrt(0.2)
	a := exactSample(d)
	b := exactSample(0)
	res, err := WelchTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.T, 2.100922, 1e-6) {
		t.Errorf("T = %g, want 2.100922", res.T)
	}
	if !almostEq(res.DF, 18, 1e-6) {
		t.Errorf("DF = %g, want 18", res.DF)
	}
	if !almostEq(res.P, 0.05, 1e-4) {
		t.Errorf("P = %g, want 0.05", res.P)
	}

	// And the 99.5th percentile of t(18) (t = 2.878440) gives p = 0.01.
	d = 2.878440 * math.Sqrt(0.2)
	res, err = WelchTTest(exactSample(0), exactSample(d))
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.P, 0.01, 1e-4) {
		t.Errorf("P = %g, want 0.01", res.P)
	}
	if res.T >= 0 {
		t.Errorf("T should be negative, got %g", res.T)
	}
}

func TestWelchTTestDegenerateVariance(t *testing.T) {
	a := MomentsOf([]float64{3, 3, 3})
	b := MomentsOf([]float64{3, 3})
	res, err := WelchTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 1 {
		t.Errorf("equal constant samples: P = %g", res.P)
	}
	c := MomentsOf([]float64{4, 4})
	res, err = WelchTTest(a, c)
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 0 {
		t.Errorf("different constant samples: P = %g", res.P)
	}
}

func TestWelchTTestInsufficientData(t *testing.T) {
	a := MomentsOf([]float64{1})
	b := MomentsOf([]float64{1, 2})
	if _, err := WelchTTest(a, b); err != ErrInsufficientData {
		t.Errorf("err = %v", err)
	}
}

func TestOneSampleTTest(t *testing.T) {
	a := MomentsOf([]float64{10, 10.2, 9.8, 10.1, 9.9})
	// x within the sample: should not reject
	res, err := OneSampleTTest(a, 10.05)
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 0.5 {
		t.Errorf("in-sample observation rejected: P = %g", res.P)
	}
	// x far away: should reject
	res, err = OneSampleTTest(a, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.P > 1e-4 {
		t.Errorf("out-of-sample observation accepted: P = %g", res.P)
	}
	if res.DF != 4 {
		t.Errorf("DF = %g, want 4", res.DF)
	}
}

func TestOneSampleTTestDegenerate(t *testing.T) {
	a := MomentsOf([]float64{5, 5, 5})
	if res, _ := OneSampleTTest(a, 5); res.P != 1 {
		t.Errorf("P = %g, want 1", res.P)
	}
	if res, _ := OneSampleTTest(a, 6); res.P != 0 {
		t.Errorf("P = %g, want 0", res.P)
	}
	if _, err := OneSampleTTest(MomentsOf([]float64{1}), 1); err != ErrInsufficientData {
		t.Errorf("err = %v", err)
	}
}

// pearsonOf is the correlation of paired samples through the
// regression accumulator LinearRegression fits with.
func pearsonOf(xs, ys []float64) float64 {
	r := regressionOf(xs, ys)
	return r.Pearson()
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if r := pearsonOf(xs, ys); !almostEq(r, 1, 1e-12) {
		t.Errorf("perfect positive: r = %g", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if r := pearsonOf(xs, neg); !almostEq(r, -1, 1e-12) {
		t.Errorf("perfect negative: r = %g", r)
	}
	if r := pearsonOf(xs, []float64{3, 3, 3, 3, 3}); r != 0 {
		t.Errorf("constant y: r = %g", r)
	}
	if r := pearsonOf([]float64{1}, []float64{2}); r != 0 {
		t.Errorf("short sample: r = %g", r)
	}
}

func TestLinearRegressionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched lengths did not panic")
		}
	}()
	_, _ = LinearRegression([]float64{1, 2}, []float64{1})
}

func TestLinearRegressionExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 + 2*x
	}
	fit, err := LinearRegression(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(fit.Slope, 2, 1e-12) || !almostEq(fit.Intercept, 3, 1e-12) {
		t.Errorf("fit = %+v", fit)
	}
	if !almostEq(fit.R, 1, 1e-12) {
		t.Errorf("R = %g", fit.R)
	}
	if !almostEq(fit.Predict(10), 23, 1e-12) {
		t.Errorf("Predict(10) = %g", fit.Predict(10))
	}
}

func TestLinearRegressionNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var xs, ys []float64
	for i := 0; i < 2000; i++ {
		x := rng.Float64() * 100
		xs = append(xs, x)
		ys = append(ys, 5+0.7*x+rng.NormFloat64()*0.5)
	}
	fit, err := LinearRegression(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(fit.Slope, 0.7, 0.01) || !almostEq(fit.Intercept, 5, 0.5) {
		t.Errorf("fit = %+v", fit)
	}
	if fit.R < 0.99 {
		t.Errorf("R = %g", fit.R)
	}
}

func TestLinearRegressionErrors(t *testing.T) {
	if _, err := LinearRegression([]float64{1}, []float64{1}); err == nil {
		t.Error("single point accepted")
	}
	if _, err := LinearRegression([]float64{2, 2, 2}, []float64{1, 2, 3}); err == nil {
		t.Error("constant regressor accepted")
	}
}

func TestMeanRelativeError(t *testing.T) {
	ref := []float64{10, 20, 0, 40}
	est := []float64{11, 18, 5, 40}
	// errors: 0.1, 0.1, (skipped), 0 → mean 0.2/3
	got := MeanRelativeError(est, ref)
	if !almostEq(got, 0.2/3, 1e-12) {
		t.Errorf("MRE = %g", got)
	}
	if MeanRelativeError([]float64{1}, []float64{0}) != 0 {
		t.Error("all-zero reference should give 0")
	}
}

func TestQuickPearsonBounds(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%50) + 2
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = rng.NormFloat64()
		}
		r := pearsonOf(xs, ys)
		return r >= -1 && r <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickWelchSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(20) + 2
		mkSample := func() Moments {
			var m Moments
			for i := 0; i < n; i++ {
				m.Add(rng.NormFloat64()*3 + 10)
			}
			return m
		}
		a, b := mkSample(), mkSample()
		r1, err1 := WelchTTest(a, b)
		r2, err2 := WelchTTest(b, a)
		if err1 != nil || err2 != nil {
			return false
		}
		return almostEq(r1.P, r2.P, 1e-9) && almostEq(r1.T, -r2.T, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
