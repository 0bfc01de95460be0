// Package pipeline is the concurrency layer of the PSM flow: it fans the
// embarrassingly parallel per-trace stages of the paper's pipeline —
// assertion mining's row evaluation, proposition-trace rewriting, the XU
// PSMGenerator and chain simplification — out over a bounded worker pool
// and merges the per-chain results deterministically.
//
// Determinism is the design constraint. Every fan-out writes results into
// index-addressed slots; the mined proposition ids are replayed
// sequentially in trace order (mining.MineParallel); and the join
// assembles the pooled model through a fixed-order pairwise tree of
// psm.Concat steps — pure, associative concatenation — before running
// the order-dependent collapse once at the root via psm.JoinPooled, the
// exact code path the sequential psm.Join uses. The model produced with
// any worker count is therefore bit-identical to the sequential flow
// (internal/check verifies it, and the sorted DOT/JSON exporters make
// the guarantee byte-testable; the property suite in property_test.go
// exercises it on randomized trace sets).
package pipeline

import (
	"context"
	"fmt"
	"runtime"

	"psmkit/internal/mining"
	"psmkit/internal/obs"
	"psmkit/internal/psm"
	"psmkit/internal/trace"
)

// Config bundles the flow policies and the worker budget.
type Config struct {
	// Workers bounds the goroutines used by each stage; ≤ 0 selects
	// runtime.GOMAXPROCS(0).
	Workers int
	// Mining, Merge and Calibration are the paper-flow tunables, exactly
	// as in the sequential pipeline.
	Mining      mining.Config
	Merge       psm.MergePolicy
	Calibration psm.CalibrationPolicy
	// SkipCalibration disables the Hamming-distance regression.
	SkipCalibration bool
}

// DefaultConfig returns the paper-reproduction policies with the worker
// count left at GOMAXPROCS.
func DefaultConfig() Config {
	return Config{
		Mining:      mining.DefaultConfig(),
		Merge:       psm.DefaultMergePolicy(),
		Calibration: psm.DefaultCalibrationPolicy(),
	}
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// BuildModel runs mining → PSMGenerator → simplify → join → calibrate
// with the per-trace stages parallelized. The output is bit-identical to
// the sequential flow (experiment.BuildModel) for any worker count.
// Cancelling ctx aborts between work items with ctx.Err().
func BuildModel(ctx context.Context, fts []*trace.Functional, pws []*trace.Power, inputCols []int, cfg Config) (*psm.Model, error) {
	ctx, span := obs.Start(ctx, "build", obs.KV("traces", len(fts)))
	defer span.End()
	chains, err := BuildChains(ctx, fts, pws, cfg)
	if err != nil {
		return nil, err
	}
	model, err := TreeJoin(ctx, chains, cfg.Merge, cfg.workers())
	if err != nil {
		return nil, err
	}
	if !cfg.SkipCalibration {
		psm.CalibrateCtx(ctx, model, fts, pws, inputCols, cfg.Calibration)
	}
	return model, nil
}

// BuildChains runs the per-trace front half of the flow — parallel
// mining, then one Generate+Simplify per trace on its own worker — and
// returns the simplified chains in trace order. cmd/psmgen uses the
// chains for its pre-join invariant checks before handing them to
// TreeJoin.
func BuildChains(ctx context.Context, fts []*trace.Functional, pws []*trace.Power, cfg Config) ([]*psm.Chain, error) {
	if len(fts) != len(pws) {
		return nil, fmt.Errorf("pipeline: %d functional traces but %d power traces", len(fts), len(pws))
	}
	ctx, span := obs.Start(ctx, "chains", obs.KV("traces", len(fts)))
	defer span.End()
	workers := cfg.workers()

	dict, pts, err := mining.MineParallel(ctx, fts, cfg.Mining, workers)
	if err != nil {
		return nil, err
	}

	chains := make([]*psm.Chain, len(pts))
	err = ForEach(ctx, workers, len(pts), func(wctx context.Context, i int) error {
		c, err := psm.GenerateCtx(wctx, dict, pts[i], pws[i], i)
		if err != nil {
			return fmt.Errorf("pipeline: trace %d: %w", i, err)
		}
		chains[i] = psm.SimplifyCtx(wctx, c, cfg.Merge)
		return nil
	})
	if err != nil {
		return nil, err
	}
	obs.RegistryFrom(ctx).Counter("pipeline_chains_built_total").Add(int64(len(chains)))
	return chains, nil
}

// TreeJoin implements psm.Join as a parallel reduction: each chain is
// pooled on its own worker (the clone-and-rebase half of the join), the
// partial pools are concatenated pairwise up a fixed left-to-right binary
// tree, and the order-dependent collapse runs once at the root. Because
// psm.Concat is associative in the chain order, every tree shape — and
// therefore every worker count — produces the same pooled model, and the
// root collapse is the same code the sequential psm.Join runs, with or
// without a provenance log attached: the result is bit-identical to
// psm.Join(chains, policy), and the join decisions are logged in the
// same order for every worker count.
func TreeJoin(ctx context.Context, chains []*psm.Chain, policy psm.MergePolicy, workers int) (*psm.Model, error) {
	if len(chains) == 0 {
		return psm.Join(nil, policy), nil
	}
	ctx, span := obs.Start(ctx, "join", obs.KV("chains", len(chains)))
	defer span.End()
	_, poolSpan := obs.Start(ctx, "join.pool")
	pools := make([]*psm.Model, len(chains))
	err := ForEach(ctx, workers, len(chains), func(_ context.Context, i int) error {
		pools[i] = psm.Pool(chains[i : i+1])
		return nil
	})
	if err != nil {
		poolSpan.End()
		return nil, err
	}
	for len(pools) > 1 {
		next := make([]*psm.Model, (len(pools)+1)/2)
		prev := pools
		err := ForEach(ctx, workers, len(next), func(_ context.Context, i int) error {
			m := prev[2*i]
			if 2*i+1 < len(prev) {
				m = psm.Concat(m, prev[2*i+1])
			}
			next[i] = m
			return nil
		})
		if err != nil {
			poolSpan.End()
			return nil, err
		}
		pools = next
	}
	poolSpan.SetAttr("states", len(pools[0].States))
	poolSpan.End()
	return psm.JoinPooledCtx(ctx, pools[0], policy), nil
}
