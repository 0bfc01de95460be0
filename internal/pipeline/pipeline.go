// Package pipeline is the concurrency layer of the PSM flow: it fans the
// embarrassingly parallel per-trace stages of the paper's pipeline —
// assertion mining's candidate reduction, the XU PSMGenerator and chain
// simplification — out over a bounded worker pool and merges the
// per-chain results deterministically.
//
// Determinism is the design constraint. Every fan-out writes results into
// index-addressed slots; the mined proposition ids are replayed
// sequentially in trace order (mining.MineParallel); and the join folds
// the chains in trace order through psm.JoinCtx — the one join engine
// (psm.Joiner) the sequential psm.Join and psmd run too. The model
// produced with any worker count is therefore bit-identical to the
// sequential flow (internal/check verifies it, and the sorted DOT/JSON
// exporters make the guarantee byte-testable; the property suite in
// property_test.go exercises it on randomized trace sets).
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

// Config bundles the flow policies and the worker budget. It is the one
// declaration of the flow's tunables: the paper tables, the
// hierarchical flow, psmgen and psmd's engines all take it.
type Config struct {
	// Workers bounds the goroutines used by each stage; ≤ 0 selects
	// runtime.GOMAXPROCS(0) (see Parallelism).
	Workers int
	// Mining, Merge and Calibration are the paper-flow tunables.
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

// Parallelism is the worker count the stages run with: Workers, or
// GOMAXPROCS when Workers ≤ 0.
func (c Config) Parallelism() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// BuildModel runs mining → PSMGenerator → simplify → join → calibrate
// with the per-trace stages parallelized. It is the one build entry
// point: psmgen, the paper tables (experiment.BuildModel, at one worker)
// and psmbench's batch workload all run it. The output is bit-identical
// for any worker count to the sequential five-call flow kept as the
// parity suites' oracle (sequentialBuild in pipeline_test.go).
// Cancelling ctx aborts between work items with ctx.Err().
func BuildModel(ctx context.Context, fts []*trace.Functional, pws []*trace.Power, inputCols []int, cfg Config) (*psm.Model, error) {
	ctx, span := obs.Start(ctx, "build", obs.KV("traces", len(fts)))
	defer span.End()
	chains, err := BuildChains(ctx, fts, pws, cfg)
	if err != nil {
		return nil, err
	}
	model := psm.JoinCtx(ctx, chains, cfg.Merge)
	if !cfg.SkipCalibration {
		psm.CalibrateCtx(ctx, model, fts, pws, inputCols, cfg.Calibration)
	}
	return model, nil
}

// BuildChains runs the per-trace front half of the flow — parallel
// mining, then one Generate+Simplify per trace on its own worker — and
// returns the simplified chains in trace order. cmd/psmgen uses the
// chains for its pre-join invariant checks before handing them to
// psm.JoinCtx.
func BuildChains(ctx context.Context, fts []*trace.Functional, pws []*trace.Power, cfg Config) ([]*psm.Chain, error) {
	if len(fts) != len(pws) {
		return nil, fmt.Errorf("pipeline: %d functional traces but %d power traces", len(fts), len(pws))
	}
	ctx, span := obs.Start(ctx, "chains", obs.KV("traces", len(fts)))
	defer span.End()
	workers := cfg.Parallelism()

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

// TreeJoin joins the chains; workers is ignored.
//
// Deprecated: use psm.JoinCtx, which this forwards to. The join is one
// sequential fold through psm.Joiner.
func TreeJoin(ctx context.Context, chains []*psm.Chain, policy psm.MergePolicy, workers int) (*psm.Model, error) {
	return psm.JoinCtx(ctx, chains, policy), nil
}
