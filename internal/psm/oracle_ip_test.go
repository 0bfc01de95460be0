package psm_test

import (
	"context"
	"testing"

	"psmkit/internal/experiment"
	"psmkit/internal/mining"
	"psmkit/internal/obs"
	"psmkit/internal/pipeline"
	"psmkit/internal/psm"
	"psmkit/internal/stats"
	"psmkit/internal/testbench"
)

// ipChains simulates a benchmark IP into `pieces` training traces and
// returns their mined, generated and simplified chains in trace order —
// the batch flow's input to the join.
func ipChains(t *testing.T, name string, total, pieces int, pol pipeline.Config) []*psm.Chain {
	t.Helper()
	c, err := experiment.CaseByName(name)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := experiment.GenerateTraces(c, total, pieces, testbench.Options{Seed: c.Seed})
	if err != nil {
		t.Fatal(err)
	}
	dict, pts, err := mining.Mine(ts.FTs, pol.Mining)
	if err != nil {
		t.Fatal(err)
	}
	chains := make([]*psm.Chain, len(pts))
	for i, pt := range pts {
		ch, err := psm.Generate(dict, pt, ts.PWs[i], i)
		if err != nil {
			t.Fatalf("%s trace %d: %v", name, i, err)
		}
		chains[i] = psm.Simplify(ch, pol.Merge)
	}
	return chains
}

// TestJoinMatchesOracleChainCounts joins the first n of seven mined RAM
// chains, n = 0…7, through production JoinCtx and the pooled oracle:
// every prefix, including the empty and single-chain joins, must give
// the same model, provenance log and merge counters.
func TestJoinMatchesOracleChainCounts(t *testing.T) {
	pol := experiment.DefaultPolicies()
	chains := ipChains(t, "RAM", 3500, 7, pol)
	for n := 0; n <= len(chains); n++ {
		psm.CheckJoinMatchesOracle(t, chains[:n], pol.Merge)
	}
}

// TestJoinMatchesOracleTableI runs the same comparison on the batch
// chains of the four Table I IPs.
func TestJoinMatchesOracleTableI(t *testing.T) {
	pol := experiment.DefaultPolicies()
	for _, c := range experiment.Cases() {
		t.Run(c.Name, func(t *testing.T) {
			psm.CheckJoinMatchesOracle(t, ipChains(t, c.Name, 2400, experiment.Pieces, pol), pol.Merge)
		})
	}
}

// TestProvenanceReplay: every logged decision carries the exact
// accumulator ⟨N, Σx, Σx²⟩ of both states, so the exact oracle
// (Evaluate, every t-test by its p-value) re-run on the logged moments
// must reproduce the logged case, test, statistic, threshold, t and
// verdict. The batch flow of the four Table I IPs decides from the
// critical-|t| table and its log derives each p-value when read, so
// this pins both against the oracle: the audit log is self-verifying.
func TestProvenanceReplay(t *testing.T) {
	pol := experiment.DefaultPolicies()
	for _, c := range experiment.Cases() {
		t.Run(c.Name, func(t *testing.T) {
			ts, err := experiment.GenerateTraces(c, 2400, experiment.Pieces, testbench.Options{Seed: c.Seed})
			if err != nil {
				t.Fatal(err)
			}
			log := obs.NewProvenanceLog()
			ctx := obs.WithProvenance(context.Background(), log)
			chains, err := pipeline.BuildChains(ctx, ts.FTs, ts.PWs, pol)
			if err != nil {
				t.Fatal(err)
			}
			psm.JoinCtx(ctx, chains, pol.Merge)
			tTests := 0
			for _, d := range log.Decisions() {
				a := stats.Moments{N: d.A.N, Sum: d.A.Sum, SumSq: d.A.SumSq}
				b := stats.Moments{N: d.B.N, Sum: d.B.Sum, SumSq: d.B.SumSq}
				out := pol.Merge.Evaluate(a, b)
				if out.Accept != d.Accept || out.Test != d.Test || out.Case != d.Case {
					t.Fatalf("decision %d: replay gives case=%d test=%s accept=%v, log says case=%d test=%s accept=%v",
						d.Seq, out.Case, out.Test, out.Accept, d.Case, d.Test, d.Accept)
				}
				if out.Stat != d.Stat || out.Threshold != d.Threshold || out.T != d.T {
					t.Fatalf("decision %d: replay statistic (%v vs %v, t %v) differs from log (%v vs %v, t %v)",
						d.Seq, out.Stat, out.Threshold, out.T, d.Stat, d.Threshold, d.T)
				}
				if out.Test == psm.TestWelch || out.Test == psm.TestOneSample {
					tTests++
				}
			}
			if tTests == 0 {
				t.Fatal("replay exercised no t-test")
			}
		})
	}
}
