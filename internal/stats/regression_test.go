package stats

import (
	"errors"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// oracleSums returns Σx, Σx², Σy, Σxy and Σy² computed exactly in
// rationals and rounded to the nearest float64 (ties to even) — the
// values Regression.Sums must reproduce bit for bit.
func oracleSums(xs, ys []float64) [numSums]float64 {
	var acc [numSums]big.Rat
	var x, y, t big.Rat
	for i := range xs {
		x.SetFloat64(xs[i])
		y.SetFloat64(ys[i])
		acc[sumX].Add(&acc[sumX], &x)
		acc[sumXX].Add(&acc[sumXX], t.Mul(&x, &x))
		acc[sumY].Add(&acc[sumY], &y)
		acc[sumXY].Add(&acc[sumXY], t.Mul(&x, &y))
		acc[sumYY].Add(&acc[sumYY], t.Mul(&y, &y))
	}
	var out [numSums]float64
	for k := range acc {
		out[k], _ = acc[k].Float64()
	}
	return out
}

func sumsOf(r *Regression) [numSums]float64 {
	var s [numSums]float64
	s[sumX], s[sumXX], s[sumY], s[sumXY], s[sumYY] = r.Sums()
	return s
}

// sameBits compares floats by bit pattern (NaNs compare by payload-free
// NaN-ness, so a NaN result equals a NaN result).
func sameBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func sameSums(a, b [numSums]float64) bool {
	for k := range a {
		if !sameBits(a[k], b[k]) {
			return false
		}
	}
	return true
}

func sameFit(a, b LinearFit) bool {
	return sameBits(a.Slope, b.Slope) && sameBits(a.Intercept, b.Intercept) && sameBits(a.R, b.R)
}

// fitFromSums applies Fit's formula to given rounded sums: with the
// oracle's sums it is the fit an exact accumulator must return.
func fitFromSums(n int, s [numSums]float64) (LinearFit, bool) {
	nf := float64(n)
	den := s[sumXX] - s[sumX]*s[sumX]/nf
	if den == 0 {
		return LinearFit{}, false
	}
	slope := (s[sumXY] - s[sumX]*s[sumY]/nf) / den
	intercept := (s[sumY] - slope*s[sumX]) / nf
	if !isFinite(slope) || !isFinite(intercept) {
		return LinearFit{}, false
	}
	return LinearFit{Slope: slope, Intercept: intercept,
		R: pearson(nf, s[sumX], s[sumXX], s[sumY], s[sumXY], s[sumYY])}, true
}

// naiveRegression is the two-pass, append-and-sum regression the exact
// accumulator replaced, kept as the behavioural reference for ordinary
// data and for the edge-case classes.
func naiveRegression(xs, ys []float64) (LinearFit, error) {
	if len(xs) < 2 {
		return LinearFit{}, ErrInsufficientData
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	den := sxx - sx*sx/n
	if den == 0 {
		return LinearFit{}, ErrConstantRegressor
	}
	slope := (sxy - sx*sy/n) / den
	r := 0.0
	if vxn, vyn := den, syy-sy*sy/n; vxn > 0 && vyn > 0 {
		r = math.Max(-1, math.Min(1, (sxy-sx*sy/n)/math.Sqrt(vxn*vyn)))
	}
	return LinearFit{Slope: slope, Intercept: (sy - slope*sx) / n, R: r}, nil
}

// spilled reports whether any sum left its in-place window.
func spilled(r *Regression) bool {
	for k := 0; k < numSums; k++ {
		if r.spilled(k) {
			return true
		}
	}
	return false
}

// Sample generators; the accumulator is exact for every finite sample.
type genFunc func(rng *rand.Rand, n int) (xs, ys []float64)

// powerLike mirrors calibration data: Hamming distances against power
// values spread over a few binades.
func powerLike(rng *rand.Rand, n int) (xs, ys []float64) {
	for i := 0; i < n; i++ {
		x := float64(rng.Intn(65))
		xs = append(xs, x)
		ys = append(ys, 1e-3*(1+rng.Float64()*40)+2e-5*x*rng.Float64())
	}
	return xs, ys
}

// wide draws signed values with random 53-bit mantissas over the whole
// float64 range, subnormals included, for both variables: squares and
// cross products overflow and underflow float64 freely.
func wide(rng *rand.Rand, n int) (xs, ys []float64) {
	v := func() float64 {
		f := math.Ldexp(1+rng.Float64(), rng.Intn(2098)-1075)
		if rng.Intn(2) == 0 {
			f = -f
		}
		return f
	}
	for i := 0; i < n; i++ {
		xs = append(xs, v())
		ys = append(ys, v())
	}
	return xs, ys
}

// cancelling pairs huge values with their negations among small ones,
// so the exact sums are tiny next to every partial sum a naive pass sees.
func cancelling(rng *rand.Rand, n int) (xs, ys []float64) {
	for i := 0; i < n; i++ {
		big := math.Ldexp(1+rng.Float64(), 400+rng.Intn(600))
		xs = append(xs, float64(rng.Intn(9)-4), float64(rng.Intn(9)-4))
		ys = append(ys, big, -big)
		xs = append(xs, rng.NormFloat64())
		ys = append(ys, rng.NormFloat64()*1e-3)
	}
	rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i]; ys[i], ys[j] = ys[j], ys[i] })
	return xs, ys
}

var generators = map[string]genFunc{"power": powerLike, "wide": wide, "cancelling": cancelling}

func single(xs, ys []float64) Regression {
	var r Regression
	for i := range xs {
		r.Add(xs[i], ys[i])
	}
	return r
}

// mergeTree splits the pairs into random contiguous-or-scattered groups,
// accumulates each group, and pools the group accumulators up a random
// binary merge tree.
func mergeTree(rng *rand.Rand, xs, ys []float64) Regression {
	groups := 1 + rng.Intn(len(xs)+1)
	parts := make([]Regression, groups)
	for i := range xs {
		parts[rng.Intn(groups)].Add(xs[i], ys[i])
	}
	for len(parts) > 1 {
		i := rng.Intn(len(parts))
		j := rng.Intn(len(parts) - 1)
		if j >= i {
			j++
		}
		parts[i].Merge(&parts[j])
		parts = append(parts[:j], parts[j+1:]...)
	}
	return parts[0]
}

func TestRegressionMatchesExactOracle(t *testing.T) {
	for name, gen := range generators {
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 60; trial++ {
			xs, ys := gen(rng, 1+rng.Intn(200))
			r := single(xs, ys)
			want := oracleSums(xs, ys)
			if got := sumsOf(&r); !sameSums(got, want) {
				t.Fatalf("%s trial %d: sums %v, exact oracle %v", name, trial, got, want)
			}
			fit, err := r.Fit()
			wantFit, ok := fitFromSums(len(xs), want)
			if len(xs) < 2 {
				ok = false
			}
			if (err == nil) != ok || (ok && !sameFit(fit, wantFit)) {
				t.Fatalf("%s trial %d: fit %+v (%v), oracle %+v (%v)", name, trial, fit, err, wantFit, ok)
			}
		}
	}
}

func TestRegressionOrderAndGroupingFree(t *testing.T) {
	for name, gen := range generators {
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 40; trial++ {
			xs, ys := gen(rng, 2+rng.Intn(150))
			ref := single(xs, ys)
			refFit, refErr := ref.Fit()
			for rep := 0; rep < 8; rep++ {
				px := append([]float64(nil), xs...)
				py := append([]float64(nil), ys...)
				rng.Shuffle(len(px), func(i, j int) { px[i], px[j] = px[j], px[i]; py[i], py[j] = py[j], py[i] })
				for _, r := range []Regression{single(px, py), mergeTree(rng, px, py)} {
					fit, err := r.Fit()
					if r.N() != ref.N() || !sameSums(sumsOf(&r), sumsOf(&ref)) ||
						(err == nil) != (refErr == nil) || !sameFit(fit, refFit) ||
						!sameBits(r.Pearson(), ref.Pearson()) {
						t.Fatalf("%s trial %d rep %d: reordered/regrouped fit %+v (%v) != single pass %+v (%v)",
							name, trial, rep, fit, err, refFit, refErr)
					}
				}
			}
		}
	}
}

// TestRegressionSpill drives sums past their in-place window (squares
// up to 960 binades apart) and checks exactness, grouping freedom and
// copy independence on the big.Int representation.
func TestRegressionSpill(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var xs, ys []float64
	for i := 0; i < 40; i++ {
		xs = append(xs, float64(rng.Intn(5)))
		ys = append(ys, math.Ldexp(1+rng.Float64(), 60*(rng.Intn(9)-4)))
	}
	r := single(xs, ys)
	if !spilled(&r) {
		t.Fatal("wide-binade sample did not spill; the test no longer covers the big.Int path")
	}
	if got, want := sumsOf(&r), oracleSums(xs, ys); !sameSums(got, want) {
		t.Fatalf("spilled sums %v, oracle %v", got, want)
	}
	if m := mergeTree(rng, xs, ys); !sameSums(sumsOf(&m), sumsOf(&r)) {
		t.Fatal("spilled merge tree differs from the single pass")
	}
	before := sumsOf(&r)
	cp := r
	cp.Add(1, 1e-300)
	cp.Merge(&r)
	if !sameSums(sumsOf(&r), before) {
		t.Fatal("writing a copy changed the original's spilled sums")
	}
}

func TestRegressionCopiesAreIndependent(t *testing.T) {
	xs, ys := powerLike(rand.New(rand.NewSource(5)), 50)
	r := single(xs, ys)
	before := sumsOf(&r)
	cp := r
	cp.Add(3, 0.25)
	cp.Merge(&r)
	if !sameSums(sumsOf(&r), before) {
		t.Fatal("writing a copy changed the original")
	}
	twice := single(append(xs, xs...), append(ys, ys...))
	if r.Merge(&r); r.N() != twice.N() || !sameSums(sumsOf(&r), sumsOf(&twice)) {
		t.Fatal("merging an accumulator into itself does not double it")
	}
}

// TestRegressionAddAllocationFree pins the batch walk's cost model:
// calibration-shaped data stays in the in-place windows.
func TestRegressionAddAllocationFree(t *testing.T) {
	xs, ys := powerLike(rand.New(rand.NewSource(9)), 4096)
	var r Regression
	i := 0
	allocs := testing.AllocsPerRun(len(xs)-1, func() {
		r.Add(xs[i], ys[i])
		i++
	})
	if allocs != 0 {
		t.Fatalf("Add allocates %.2f times per sample on power-shaped data", allocs)
	}
	if spilled(&r) {
		t.Fatal("power-shaped data outgrew the in-place window")
	}
}

func TestRegressionEdgeCases(t *testing.T) {
	cases := []struct {
		name   string
		xs, ys []float64
		err    error
		r0     bool // Pearson must be exactly 0
	}{
		{"empty", nil, nil, ErrInsufficientData, true},
		{"single", []float64{1}, []float64{2}, ErrInsufficientData, true},
		{"constant regressor", []float64{2, 2, 2}, []float64{1, 2, 3}, ErrConstantRegressor, true},
		{"constant response", []float64{1, 2, 3, 4}, []float64{3, 3, 3, 3}, nil, true},
		{"NaN y", []float64{1, 2, 3}, []float64{1, math.NaN(), 3}, ErrNonFinite, true},
		{"+Inf x", []float64{1, math.Inf(1), 3}, []float64{1, 2, 3}, ErrNonFinite, true},
		{"-Inf y", []float64{1, 2, 3}, []float64{1, 2, math.Inf(-1)}, ErrNonFinite, true},
		{"Σxy rounds to +Inf", []float64{1e200, 2e200, 0}, []float64{1e200, 1e200, 1}, ErrNonFinite, true},
	}
	for _, c := range cases {
		r := single(c.xs, c.ys)
		fit, err := r.Fit()
		if !errors.Is(err, c.err) {
			t.Errorf("%s: err %v, want %v (fit %+v)", c.name, err, c.err, fit)
		}
		if p := r.Pearson(); c.r0 && p != 0 {
			t.Errorf("%s: Pearson %g, want 0", c.name, p)
		}
		if len(c.xs) == len(c.ys) {
			if _, err := LinearRegression(c.xs, c.ys); !errors.Is(err, c.err) {
				t.Errorf("%s: LinearRegression err %v, want %v", c.name, err, c.err)
			}
			if p := Pearson(c.xs, c.ys); c.r0 && p != 0 {
				t.Errorf("%s: stats.Pearson %g, want 0", c.name, p)
			}
		}
		// The replaced two-pass regression agrees on every finite class.
		if c.err != ErrNonFinite {
			if _, nerr := naiveRegression(c.xs, c.ys); !errors.Is(nerr, c.err) {
				t.Errorf("%s: reference err %v, want %v", c.name, nerr, c.err)
			}
		}
	}
}

// TestRegressionCancellationHeavy: ±1e300 responses, at the same x,
// around small ones. Σy² rounds to +Inf, so the fit survives with r = 0 —
// the class the two-pass regression returned too — while slope and
// intercept now come from the exact Σy and Σxy, in which the huge terms
// cancel; the naive sums lost the small terms that followed 1e300.
func TestRegressionCancellationHeavy(t *testing.T) {
	xs := []float64{1, 2, 1, 3, 4, 5}
	ys := []float64{1e300, 0.5, -1e300, 1.5, 2.5, 3.5}
	r := single(xs, ys)
	want := oracleSums(xs, ys)
	if got := sumsOf(&r); !sameSums(got, want) {
		t.Fatalf("sums %v, oracle %v", got, want)
	}
	if !math.IsInf(want[sumYY], 1) {
		t.Fatalf("oracle Σy² = %g, the case no longer overflows", want[sumYY])
	}
	fit, err := r.Fit()
	if err != nil {
		t.Fatal(err)
	}
	wantFit, _ := fitFromSums(len(xs), want)
	if !sameFit(fit, wantFit) || fit.R != 0 {
		t.Fatalf("fit %+v, oracle %+v", fit, wantFit)
	}
	naive, err := naiveRegression(xs, ys)
	if err != nil || naive.R != 0 {
		t.Fatalf("reference class changed: %+v, %v", naive, err)
	}
	if sameBits(naive.Slope, fit.Slope) {
		t.Fatalf("naive slope %g equals the exact one; the case no longer exercises cancellation", naive.Slope)
	}
}

// TestRegressionMatchesNaiveOnOrdinaryData: on well-conditioned data the
// exact sums move a fit by rounding noise only.
func TestRegressionMatchesNaiveOnOrdinaryData(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		xs, ys := powerLike(rng, 3+rng.Intn(500))
		got, err := LinearRegression(xs, ys)
		ref, rerr := naiveRegression(xs, ys)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("trial %d: err %v, reference %v", trial, err, rerr)
		}
		if err != nil {
			continue
		}
		rel := func(a, b float64) float64 { return math.Abs(a-b) / math.Max(math.Abs(b), 1e-300) }
		if rel(got.Slope, ref.Slope) > 1e-9 || rel(got.Intercept, ref.Intercept) > 1e-9 || math.Abs(got.R-ref.R) > 1e-9 {
			t.Fatalf("trial %d: exact %+v vs two-pass %+v", trial, got, ref)
		}
	}
}

func TestSumRoundsToNearestEven(t *testing.T) {
	ulp := math.Nextafter(1, 2) - 1
	tiny := math.SmallestNonzeroFloat64
	maxUlp := math.MaxFloat64 - math.Nextafter(math.MaxFloat64, 0)
	cases := []struct {
		name  string
		terms []float64
		want  float64
	}{
		{"halfway to odd: down", []float64{1, ulp / 2}, 1},
		{"halfway to even: up", []float64{1 + ulp, ulp / 2}, 1 + 2*ulp},
		{"just past halfway", []float64{1, ulp / 2, ulp / 1024}, 1 + ulp},
		{"just short of halfway", []float64{1, ulp / 2, -ulp / 1024}, 1},
		{"negative halfway", []float64{-1 - ulp, -ulp / 2}, -1 - 2*ulp},
		{"cancels to +0", []float64{1e300, 3, -1e300, -3}, 0},
		{"subnormal ties", []float64{tiny, tiny, tiny}, 3 * tiny},
		{"MaxFloat64 + half ulp", []float64{math.MaxFloat64, maxUlp / 2}, math.Inf(1)},
		{"MaxFloat64 + less", []float64{math.MaxFloat64, maxUlp / 4}, math.MaxFloat64},
		{"empty", nil, 0},
	}
	for _, c := range cases {
		var r Regression
		for _, v := range c.terms {
			neg, m, e := split(v)
			r.add(sumY, neg, 0, m, e)
		}
		if got := r.value(sumY); !sameBits(got, c.want) {
			t.Errorf("%s: %v rounds to %v, want %v", c.name, c.terms, got, c.want)
		}
	}
	// Below the smallest subnormal: exact sums of products land between
	// float64 values there too (terms given as m·2^e).
	type term struct {
		m uint64
		e int
	}
	sub := []struct {
		name  string
		terms []term
		want  float64
	}{
		{"halfway to 0", []term{{1, -1075}}, 0},
		{"1.5 ulp: halfway to even 2", []term{{3, -1075}}, 2 * tiny},
		{"past halfway", []term{{1, -1075}, {1, -1100}}, tiny},
		{"2.5 ulp: halfway to even 2", []term{{5, -1075}}, 2 * tiny},
	}
	for _, c := range sub {
		var r Regression
		for _, tm := range c.terms {
			r.add(sumY, false, 0, tm.m, tm.e)
		}
		if got := r.value(sumY); !sameBits(got, c.want) {
			t.Errorf("%s: rounds to %v, want %v", c.name, got, c.want)
		}
	}
}

// FuzzRegressionMerge splits fuzzed (x, y) pairs into random groups,
// merges the group accumulators up a random tree, and checks the result
// against a single pass (bit-identical sums, fit and correlation, always)
// and against the exact rational oracle (whenever every sample is
// finite).
//
// Input layout: byte 0 seeds the grouping; then 11 bytes per pair —
// a kind byte, x as int8 plus a 1/256 fraction, and y as a sign bit, a
// 7-bit exponent spanning the float64 range in steps of 16 binades, and
// 52 mantissa bits. Kind ≡ 7 (mod 8) swaps y for a special
// value (NaN, ±Inf, ±1e300, 0, -0) to cover poisoning and saturation.
func FuzzRegressionMerge(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 0, 3, 0, 128, 1, 2, 3, 4, 5, 6, 7, 0, 5, 0, 130, 9, 9, 9, 9, 9, 9, 9})
	f.Add([]byte{2, 7, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7, 2, 0, 3, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		rng := rand.New(rand.NewSource(int64(data[0])))
		specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300, 0, math.Copysign(0, -1)}
		var xs, ys []float64
		exact := true
		for p := data[1:]; len(p) >= 11; p = p[11:] {
			x := float64(int8(p[1])) + float64(p[2])/256
			var mant uint64
			for _, b := range p[4:11] {
				mant = mant<<8 | uint64(b)
			}
			y := math.Ldexp(1+float64(mant&(1<<52-1))/(1<<52), (int(p[3]&0x7f)-64)*16)
			exact = exact && isFinite(y)
			if p[3]&0x80 != 0 {
				y = -y
			}
			if p[0]%8 == 7 {
				y = specials[int(p[0]/8)%len(specials)]
				exact = exact && isFinite(y)
			}
			xs = append(xs, x)
			ys = append(ys, y)
		}
		ref := single(xs, ys)
		if len(xs) > 0 {
			got := mergeTree(rng, xs, ys)
			fit, err := got.Fit()
			refFit, refErr := ref.Fit()
			if got.N() != ref.N() || !sameSums(sumsOf(&got), sumsOf(&ref)) || (err == nil) != (refErr == nil) ||
				!sameFit(fit, refFit) || !sameBits(got.Pearson(), ref.Pearson()) {
				t.Fatalf("merge tree %v/%+v (%v) != single pass %v/%+v (%v)",
					sumsOf(&got), fit, err, sumsOf(&ref), refFit, refErr)
			}
		}
		if exact {
			if got, want := sumsOf(&ref), oracleSums(xs, ys); !sameSums(got, want) {
				t.Fatalf("sums %v, exact oracle %v", got, want)
			}
		}
	})
}

var benchFit LinearFit

// BenchmarkRegressionAdd measures the per-sample cost of the exact
// accumulator on calibration-shaped data (ns/op = ns per pair).
func BenchmarkRegressionAdd(b *testing.B) {
	xs, ys := powerLike(rand.New(rand.NewSource(1)), 4096)
	var r Regression
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i & 4095
		r.Add(xs[k], ys[k])
	}
	benchFit, _ = r.Fit()
}
