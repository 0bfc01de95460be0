package pipeline_test

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"psmkit/internal/obs"
	"psmkit/internal/pipeline"
	"psmkit/internal/psm"
)

// obsCtx returns a context with every observability sink attached: span
// events stream to io.Discard, a live registry and a live provenance
// log — the heaviest instrumented configuration.
func obsCtx() (context.Context, *obs.ProvenanceLog) {
	log := obs.NewProvenanceLog()
	ctx := obs.WithTracer(context.Background(), obs.NewTracer(io.Discard))
	ctx = obs.WithRegistry(ctx, obs.NewRegistry())
	ctx = obs.WithProvenance(ctx, log)
	return ctx, log
}

// TestPropertyObservedBuildIdentical pins the instrumentation-neutrality
// invariant: BuildModel with the full observability stack attached must
// emit byte-identical DOT and JSON exports to the plain run, for every
// seed of the randomized suite.
func TestPropertyObservedBuildIdentical(t *testing.T) {
	seeds := 16
	if testing.Short() {
		seeds = 4
	}
	cfg := pipeline.DefaultConfig()
	cfg.Workers = 4
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		c := genCase(rng)

		plain, plainErr := pipeline.BuildModel(context.Background(), c.fts, c.pws, c.cols, cfg)
		ctx, _ := obsCtx()
		observed, obsErr := pipeline.BuildModel(ctx, c.fts, c.pws, c.cols, cfg)

		switch {
		case plainErr != nil && obsErr != nil:
			continue
		case plainErr != nil || obsErr != nil:
			t.Fatalf("seed %d: plain err=%v, observed err=%v — instrumentation changed the outcome", seed, plainErr, obsErr)
		}

		var pDOT, oDOT, pJSON, oJSON bytes.Buffer
		if err := plain.WriteDOT(&pDOT, "m"); err != nil {
			t.Fatal(err)
		}
		if err := observed.WriteDOT(&oDOT, "m"); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pDOT.Bytes(), oDOT.Bytes()) {
			t.Fatalf("seed %d: DOT differs under instrumentation (%s)", seed, c)
		}
		if err := plain.WriteJSON(&pJSON); err != nil {
			t.Fatal(err)
		}
		if err := observed.WriteJSON(&oJSON); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pJSON.Bytes(), oJSON.Bytes()) {
			t.Fatalf("seed %d: JSON differs under instrumentation (%s)", seed, c)
		}
	}
}

// buildWithProvenance runs the chain+join flow with a provenance log
// attached and returns the canonical decision list.
func buildWithProvenance(t *testing.T, c propCase, workers int) []obs.MergeDecision {
	t.Helper()
	cfg := pipeline.DefaultConfig()
	cfg.Workers = workers
	log := obs.NewProvenanceLog()
	ctx := obs.WithProvenance(context.Background(), log)
	chains, err := pipeline.BuildChains(ctx, c.fts, c.pws, cfg)
	if err != nil {
		t.Skipf("trace set unbuildable: %v", err)
	}
	psm.JoinCtx(ctx, chains, cfg.Merge)
	return log.Decisions()
}

// TestProvenanceDeterministicAcrossWorkers: the canonical decision log
// must not depend on the worker count, only on the inputs.
func TestProvenanceDeterministicAcrossWorkers(t *testing.T) {
	for seed := 0; seed < 6; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		c := genCase(rng)
		seq := buildWithProvenance(t, c, 1)
		if len(seq) == 0 {
			t.Fatalf("seed %d: no merge decisions recorded (%s)", seed, c)
		}
		for _, workers := range []int{2, 4} {
			par := buildWithProvenance(t, c, workers)
			if !reflect.DeepEqual(seq, par) {
				t.Fatalf("seed %d: provenance log differs between 1 and %d workers", seed, workers)
			}
		}
	}
}
