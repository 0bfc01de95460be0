package stats

import (
	"math"
	"math/rand"
	"testing"
)

// TestCriticalTMatchesPValue draws t statistics around the critical
// band of integer, fractional and large degrees of freedom at several
// α, and requires every verdict the table gives to equal the p-value
// decision TwoSidedTPValue(t, df) >= α. It also requires the table to
// settle nearly all of them: a table that declines everything would
// pass the equality trivially.
func TestCriticalTMatchesPValue(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, alpha := range []float64{0.2, 0.05, 0.5, 0.9, 1e-6} {
		tab := CriticalTable(alpha)
		decided, total := 0, 0
		for i := 0; i < 20000; i++ {
			var df float64
			switch i % 4 {
			case 0:
				df = float64(1 + rng.Intn(critDFs))
			case 1:
				df = 1 + rng.Float64()*critDFs
			case 2:
				df = critDFs * math.Exp(rng.Float64()*math.Log(critDFMax/critDFs))
			default:
				df = 1 + rng.Float64()*3
			}
			c := tab.crit[int(math.Min(df, critDFs))]
			tv := c * math.Exp(rng.NormFloat64()*0.3)
			if rng.Intn(2) == 0 {
				tv = -tv
			}
			total++
			accept, ok := tab.Decide(tv, df)
			if !ok {
				continue
			}
			decided++
			if want := TwoSidedTPValue(tv, df) >= alpha; accept != want {
				t.Fatalf("α %g: Decide(%v, %v) = %v, p-value %v says %v", alpha, tv, df, accept, TwoSidedTPValue(tv, df), want)
			}
		}
		if decided < total*8/10 {
			t.Fatalf("α %g: the table settled %d of %d verdicts, want at least 80%%", alpha, decided, total)
		}
	}
}

// TestCriticalTFallsWithDF: the critical |t| of TwoSidedTPValue, found
// by bisection, falls strictly as df grows from 1 to 1e12, at α from
// 1e-6 to 0.9, and stays above the normal limit where the table's band
// past critDFs starts. It also pins that P does not round to 1 where
// t²/df < 1e-16.
func TestCriticalTFallsWithDF(t *testing.T) {
	for _, alpha := range []float64{1e-6, 0.05, 0.2, 0.9} {
		normal := CriticalTable(alpha).normal
		prev := math.Inf(1)
		for k := 0; k <= 48; k++ {
			df := math.Pow(10, float64(k)/4)
			c := lowestBelow(func(tv float64) bool { return TwoSidedTPValue(tv, df) < alpha }, 1)
			if !(c < prev && c > normal) {
				t.Fatalf("α %g: critical |t| %v at df %g, %v at the df before, normal limit %v", alpha, c, df, prev, normal)
			}
			prev = c
		}
	}
	if p := TwoSidedTPValue(1e-3, 1e12); !(p < 1) {
		t.Fatalf("TwoSidedTPValue(1e-3, 1e12) = %v, want < 1", p)
	}
	if p := TwoSidedTPValue(math.Inf(-1), 1e6); p != 0 {
		t.Fatalf("TwoSidedTPValue(-Inf, 1e6) = %v, want 0", p)
	}
	if p := TwoSidedTPValue(math.NaN(), 1e6); !math.IsNaN(p) {
		t.Fatalf("TwoSidedTPValue(NaN, 1e6) = %v, want NaN", p)
	}
}

// TestCriticalTDeclines: the table gives no verdict outside its domain
// — non-finite t, df below 1 or past critDFMax, α outside
// [critAlphaMin, critAlphaMax] — nor inside the margin around a
// critical value.
func TestCriticalTDeclines(t *testing.T) {
	tab := CriticalTable(0.2)
	for _, c := range []struct{ t, df float64 }{
		{math.Inf(1), 10}, {math.Inf(-1), 10}, {math.NaN(), 10},
		{1, 0.5}, {1, 2 * critDFMax}, {1, math.Inf(1)}, {1, math.NaN()},
		{tab.crit[7], 7}, {math.Nextafter(tab.crit[7], 0), 7},
		{(tab.crit[1] + tab.crit[2]) / 2, 1.5},
	} {
		if _, ok := tab.Decide(c.t, c.df); ok {
			t.Errorf("Decide(%v, %v) gave a verdict", c.t, c.df)
		}
	}
	for _, alpha := range []float64{0, -0.1, 1, 1.1, 0.95, 1e-12, math.NaN()} {
		if _, ok := CriticalTable(alpha).Decide(0.5, 10); ok {
			t.Errorf("α %v: Decide gave a verdict", alpha)
		}
	}
	if accept, ok := tab.Decide(0, 3); !ok || !accept {
		t.Error("t = 0 must accept")
	}
}

// TestCriticalTShared: one α yields one table.
func TestCriticalTShared(t *testing.T) {
	if CriticalTable(0.2) != CriticalTable(0.2) {
		t.Fatal("CriticalTable built two tables for one α")
	}
}

// FuzzCriticalT requires every verdict a CriticalT gives for (t, df, α)
// to equal the p-value decision TwoSidedTPValue(t, df) >= α it
// replaces. The seed corpus under testdata/fuzz/FuzzCriticalT is written
// by `go run ./scripts/fuzzcorpus`: one ulp either side of tabulated
// critical values and of their margins, at df 1 and 2, at fractional
// df, past the table's end and its cap, at ±Inf and NaN t, and at
// several α inside and outside the tabulated range.
func FuzzCriticalT(f *testing.F) {
	f.Add(1.5, 4.0, 0.2)
	// The last α's table: building one costs milliseconds.
	var tab *CriticalT
	var tabAlpha float64
	f.Fuzz(func(t *testing.T, tv, df, alpha float64) {
		if !(df > 0) {
			return // TwoSidedTPValue requires positive degrees of freedom
		}
		if tab == nil || math.Float64bits(tabAlpha) != math.Float64bits(alpha) {
			tab, tabAlpha = newCriticalT(alpha), alpha
		}
		accept, ok := tab.Decide(tv, df)
		if !ok {
			return
		}
		if p := TwoSidedTPValue(tv, df); accept != (p >= alpha) {
			t.Fatalf("Decide(%v, %v) at α %v = %v, but the p-value is %v", tv, df, alpha, accept, p)
		}
	})
}
