package psm

import (
	"context"
	"os"
	"reflect"
	"testing"
	"time"

	"psmkit/internal/obs"
	"psmkit/internal/stats"
)

// joinFixpointScan is the paper's fixpoint as first shipped: rescan all
// pairs from the top after every collapse until none merges. Each
// collapse costs a fresh O(n²) pair scan (~O(n³) total on
// mergeable-heavy pools). It is the oracle of the worklist engine:
// collapseWorklist must perform exactly this scan's collapse sequence.
func joinFixpointScan(mg *merger, m *Model, alias map[int]int) {
	for {
		found := false
		for i := 0; i < len(m.States) && !found; i++ {
			for j := i + 1; j < len(m.States) && !found; j++ {
				if mg.judge(m.States[i], m.States[j]).Accept {
					collapse(m, alias, i, j)
					found = true
				}
			}
		}
		if !found {
			break
		}
	}
}

// joinPooledScan is the pooled oracle (joinPooled) with the restart
// scan in place of the worklist — the join exactly as shipped
// before the worklist engine landed. A provenance log on ctx records
// every probe of the scan, re-probes after each collapse included.
func joinPooledScan(ctx context.Context, m *Model, policy MergePolicy) *Model {
	mg := newMerger(ctx, policy, phaseJoin, -1)
	alias := map[int]int{}
	joinPhase1(&mg, m, alias)
	joinFixpointScan(&mg, m, alias)
	resolveTransitions(m, alias)
	reindex(m)
	return m
}

// adversarialChains builds `groups` three-state chains, 3·groups
// states in all, on which the restart scan pays a fresh O(n²)
// evaluation sweep per collapse while the worklist pays one seeding
// sweep plus O(n) re-probes per collapse. Chain g's power levels are
// scaled by 1.25^g, far outside every merge tolerance, so chains never
// interact; within a chain the states are tuned to the default policy's
// thresholds so that the join's two phases each fire exactly once:
//
//   - X (μ=1.0, n=2, σ=0) and Y (μ=1.0995, n=2, σ=0): relative
//     difference 0.0905 — the degenerate-Welch ε check (0.05) rejects;
//   - Z (μ=1.048, n=200, σ=0): against X the relative difference is
//     0.0458 ≤ ε, so phase 1 folds Z into X, dragging the pooled mean to
//     μ≈1.0475 and making its variance positive;
//   - phase 2 then accepts (X′, Y): relative difference 0.0473 ≤ the
//     equivalence margin — a merge that only becomes possible after the
//     phase-1 pooling, which is exactly the fixpoint's reason to exist.
//
// Every chain therefore forces one phase-2 collapse, and the joined
// model has exactly `groups` states. Proposition ids are pooled-global
// (chain g's states carry 3g, 3g+1, 3g+2), so no two states share an
// assertion.
func adversarialChains(groups int) []*Chain {
	chains := make([]*Chain, groups)
	scale := 1.0
	for g := range chains {
		c := &Chain{Trace: g}
		for k, spec := range [...]struct {
			mu float64
			n  int
		}{{1.0, 2}, {1.0995, 2}, {1.048, 200}} {
			vals := make([]float64, spec.n)
			for i := range vals {
				vals[i] = spec.mu * scale
			}
			c.States = append(c.States, &State{
				ID: k,
				Alts: []Alt{{
					Seq:   Sequence{Phases: []Phase{{Prop: 3*g + k, Kind: Until}}},
					Count: 1,
				}},
				Power:     stats.MomentsOf(vals),
				Intervals: []Interval{{Trace: g, Start: k * 10, Stop: k*10 + spec.n - 1}},
			})
		}
		chains[g] = c
		scale *= 1.25
	}
	return chains
}

// scanArm is the restart-scan oracle as a join arm: Pool, then
// joinPooledScan.
func scanArm(ctx context.Context, chains []*Chain, policy MergePolicy) *Model {
	return joinPooledScan(ctx, Pool(chains), policy)
}

// joinArm runs one join engine over the chains with its own metrics
// registry, returning the wall time, the number of mergeability
// decisions (the psm_merge_evals_total counter, which ticks once per
// check) and the joined model.
func joinArm(chains []*Chain, join func(context.Context, []*Chain, MergePolicy) *Model) (time.Duration, int64, *Model) {
	reg := obs.NewRegistry()
	ctx := obs.WithRegistry(context.Background(), reg)
	start := time.Now()
	out := join(ctx, chains, DefaultMergePolicy())
	elapsed := time.Since(start)
	return elapsed, reg.Snapshot().Counters["psm_merge_evals_total"], out
}

// BenchmarkJoinScaling compares the restart-scan oracle against
// production JoinCtx on the adversarial 501-state chain set (167
// chains, one phase-2 collapse each). The restart scan pays a fresh
// O(n²) evaluation sweep per collapse; the worklist pays one seeding
// sweep plus O(n) re-probes. speedup_x is the scan's wall time divided
// by the worklist per-op time; evals_ref and evals_worklist count the
// merge evaluations per join. The models are
// byte-identical (TestJoinScalingGate pins that).
func BenchmarkJoinScaling(b *testing.B) {
	chains := adversarialChains(167)
	refTime, refEvals, ref := joinArm(chains, scanArm)

	var wlEvals int64
	var wl *Model
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, wlEvals, wl = joinArm(chains, JoinCtx)
	}
	if len(wl.States) != len(ref.States) {
		b.Fatalf("worklist collapsed to %d states, reference to %d", len(wl.States), len(ref.States))
	}
	b.ReportMetric(refTime.Seconds()/(b.Elapsed().Seconds()/float64(b.N)), "speedup_x")
	b.ReportMetric(float64(refEvals), "evals_ref")
	b.ReportMetric(float64(wlEvals), "evals_worklist")
	b.ReportMetric(float64(len(ref.States)), "states_out")
}

// TestJoinScalingGate is the `make bench-join` regression gate for the
// worklist join engine, on the 1200-state adversarial chain set, with
// production JoinCtx as the worklist arm:
//
//   - JoinCtx must be ≥5× faster than the restart-scan oracle (min
//     over interleaved rounds, like the obs gate);
//   - it must execute strictly fewer merge evaluations;
//   - both engines must collapse to exactly one state per group and
//     produce deeply equal models (the stream parity suite additionally
//     pins DOT/JSON byte identity on mined models).
//
// Wall-clock gates are noisy, so the test only runs under BENCH_JOIN=1
// (CI: `make bench-join`).
func TestJoinScalingGate(t *testing.T) {
	if os.Getenv("BENCH_JOIN") == "" {
		t.Skip("set BENCH_JOIN=1 (or run `make bench-join`) to run the join scaling gate")
	}
	const groups = 400 // 1200 pooled states: deep enough that the scan's cubic term dominates
	chains := adversarialChains(groups)

	joinArm(chains, scanArm) // warm both arms before timing
	joinArm(chains, JoinCtx)
	const rounds = 3
	minRef, minWl := time.Duration(1<<62), time.Duration(1<<62)
	var refEvals, wlEvals int64
	var ref, wl *Model
	for i := 0; i < rounds; i++ {
		var d time.Duration
		if d, refEvals, ref = joinArm(chains, scanArm); d < minRef {
			minRef = d
		}
		if d, wlEvals, wl = joinArm(chains, JoinCtx); d < minWl {
			minWl = d
		}
	}

	if len(ref.States) != groups || len(wl.States) != groups {
		t.Fatalf("collapsed to %d (reference) / %d (worklist) states, want %d",
			len(ref.States), len(wl.States), groups)
	}
	if !reflect.DeepEqual(ref, wl) {
		t.Fatal("worklist and reference joins produced different models")
	}

	speedup := float64(minRef) / float64(minWl)
	t.Logf("reference %v (%d evals), worklist %v (%d evals), speedup %.1fx",
		minRef, refEvals, minWl, wlEvals, speedup)
	if wlEvals >= refEvals {
		t.Fatalf("worklist executed %d evaluations, reference %d; want strictly fewer", wlEvals, refEvals)
	}
	if speedup < 5 {
		t.Fatalf("worklist speedup %.1fx over restart scan (min over %d rounds: %v vs %v); gate is 5x",
			speedup, rounds, minWl, minRef)
	}
}

// TestJoinProvenanceFollowsWorklist pins the join-phase provenance
// contract on the adversarial chains: the log records phase 1's checks,
// then the worklist's rejected probes when they are made and each
// collapse when it is performed. With n states surviving phase 1 that
// bounds the log by the phase-1 checks plus n(n−1)/2 + collapses·(n−1)
// fixpoint entries, and every collapse of either phase is exactly one
// accept entry. The restart scan, which re-logs every rejected pair
// after each collapse, must exceed the same bound — otherwise the
// model would not tell the two orders apart.
func TestJoinProvenanceFollowsWorklist(t *testing.T) {
	const groups = 12
	chains := adversarialChains(groups)
	pooled := Pool(chains)
	policy := DefaultMergePolicy()

	// Phase 1 alone, counted: its probe count and its survivors.
	reg := obs.NewRegistry()
	mg := newMerger(obs.WithRegistry(context.Background(), reg), policy, phaseJoin, -1)
	p1 := CloneModel(pooled)
	joinPhase1(&mg, p1, map[int]int{})
	phase1Checks := reg.Snapshot().Counters["psm_merge_checks_total"]
	n := int64(len(p1.States))

	logOf := func(join func(context.Context, []*Chain, MergePolicy) *Model) ([]obs.MergeDecision, *Model) {
		log := obs.NewProvenanceLog()
		out := join(obs.WithProvenance(context.Background(), log), chains, policy)
		return log.Decisions(), out
	}
	ds, served := logOf(JoinCtx)
	collapses := n - int64(len(served.States))
	bound := phase1Checks + n*(n-1)/2 + collapses*(n-1)
	if int64(len(ds)) > bound {
		t.Fatalf("join log holds %d decisions, want at most %d (phase 1 %d, n=%d, %d fixpoint collapses)",
			len(ds), bound, phase1Checks, n, collapses)
	}
	accepts := 0
	for _, d := range ds {
		if d.Phase != phaseJoin {
			t.Fatalf("decision %d: phase %q, want %q", d.Seq, d.Phase, phaseJoin)
		}
		if d.Accept {
			accepts++
		}
	}
	if want := len(pooled.States) - len(served.States); accepts != want {
		t.Fatalf("%d accept entries, want pooled %d − served %d = %d",
			accepts, len(pooled.States), len(served.States), want)
	}
	if collapses != groups {
		t.Fatalf("%d fixpoint collapses, want one per group (%d)", collapses, groups)
	}

	scanDs, scanned := logOf(scanArm)
	if !reflect.DeepEqual(scanned, served) {
		t.Fatal("restart scan and worklist served different models")
	}
	if int64(len(scanDs)) <= bound {
		t.Fatalf("restart scan logged %d decisions, within the worklist bound %d: the model does not separate the two orders",
			len(scanDs), bound)
	}
}
