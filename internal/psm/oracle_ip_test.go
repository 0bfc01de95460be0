package psm_test

import (
	"testing"

	"psmkit/internal/experiment"
	"psmkit/internal/mining"
	"psmkit/internal/pipeline"
	"psmkit/internal/psm"
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
