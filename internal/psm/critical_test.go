package psm

import (
	"math"
	"math/rand"
	"testing"

	"psmkit/internal/stats"
)

// Evaluate is the exact oracle of the merge verdict: evaluate with a
// table that decides nothing, so every t-test computes its p-value,
// and Stat set to the p-value a provenance log reports for it.
func (p MergePolicy) Evaluate(a, b stats.Moments) MergeOutcome {
	out := p.evaluate(a, b, &stats.CriticalT{})
	if out.DF != 0 {
		out.Stat = stats.TwoSidedTPValue(out.T, out.DF)
	}
	return out
}

// Mergeable is the production verdict on a pair: evaluate under the
// policy's critical-|t| table.
func (p MergePolicy) Mergeable(a, b stats.Moments) bool {
	return p.evaluate(a, b, stats.CriticalTable(p.Alpha)).Accept
}

// momentsOf returns the accumulator of an n-sample with the given mean
// and standard deviation.
func momentsOf(n int, mean, sd float64) stats.Moments {
	fn := float64(n)
	return stats.Moments{N: n, Sum: fn * mean, SumSq: (fn-1)*sd*sd + fn*mean*mean}
}

// randTestPair draws a pair of power summaries whose t-test, if one
// runs, lands near the critical value: the second mean is past the
// equivalence margin, and the spread is tuned to a t statistic of about
// 0.5–5. margin is the policy's equivalence margin; means up to 1 %
// inside it let the shortcut decide some pairs. Either order, and every
// case, occurs.
func randTestPair(rng *rand.Rand, margin float64) (a, b stats.Moments) {
	size := func() int {
		switch rng.Intn(4) {
		case 0:
			return 1
		case 1:
			return 2 + rng.Intn(5)
		case 2:
			return 7 + rng.Intn(100)
		default:
			return 100 + rng.Intn(20000)
		}
	}
	na, nb := size(), size()
	ma := 1 + rng.Float64()
	mb := ma * (1 + (margin+0.5*rng.Float64())*float64(1-2*rng.Intn(2)))
	se := math.Abs(ma-mb) / (0.5 + 4.5*rng.Float64())
	switch {
	case na == 1 && nb == 1:
		return momentsOf(1, ma, 0), momentsOf(1, mb, 0)
	case na > 1 && nb > 1:
		// Welch: se² = va/na + vb/nb with vb = r·va.
		r := math.Exp(rng.NormFloat64())
		va := se * se / (1/float64(na) + r/float64(nb))
		return momentsOf(na, ma, math.Sqrt(va)), momentsOf(nb, mb, math.Sqrt(r*va))
	case na > 1:
		// One-sample: se = s·√(1 + 1/n).
		return momentsOf(na, ma, se/math.Sqrt(1+1/float64(na))), momentsOf(1, mb, 0)
	default:
		return momentsOf(1, ma, 0), momentsOf(nb, mb, se/math.Sqrt(1+1/float64(nb)))
	}
}

// TestTableVerdictMatchesEvaluate is the fast verdict's property: over
// seeded random moment pairs tuned to the t-tests' critical region, the
// verdict decided from the critical-|t| table must carry Evaluate's
// case, test, t statistic, df and decision under every policy; only
// the oracle carries a t-test's p-value. Most t-tests must be settled
// by the table.
func TestTableVerdictMatchesEvaluate(t *testing.T) {
	policies := append([]MergePolicy{DefaultMergePolicy()}, tightPolicies...)
	policies = append(policies, MergePolicy{Epsilon: 0.05, Alpha: 0.999999, EquivalenceMargin: 0.05})
	rng := rand.New(rand.NewSource(25))
	for _, pol := range policies {
		crit := stats.CriticalTable(pol.Alpha)
		tests, exact := 0, 0
		for i := 0; i < 50000; i++ {
			a, b := randTestPair(rng, pol.EquivalenceMargin-0.01)
			want := pol.Evaluate(a, b)
			got := pol.evaluate(a, b, crit)
			if got.Test == TestWelch || got.Test == TestOneSample {
				tests++
				if _, ok := crit.Decide(got.T, got.DF); !ok {
					exact++
				}
				if got.Stat != 0 {
					t.Fatalf("α %g, %+v vs %+v: table verdict %+v carries a p-value", pol.Alpha, a, b, got)
				}
				got.Stat = want.Stat
			}
			if got != want {
				t.Fatalf("α %g, %+v vs %+v: table verdict %+v, Evaluate %+v", pol.Alpha, a, b, got, want)
			}
		}
		t.Logf("α %g: %d t-tests, %d computed the p-value", pol.Alpha, tests, exact)
		if tests < 5000 {
			t.Fatalf("α %g: only %d of the pairs reached a t-test", pol.Alpha, tests)
		}
		if pol.Alpha <= 0.9 && exact > tests/10 {
			t.Fatalf("α %g: %d of %d t-tests computed the p-value, want at most a tenth", pol.Alpha, exact, tests)
		}
	}
}
