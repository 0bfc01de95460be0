package stream

import (
	"context"
	"fmt"

	"psmkit/internal/mining"
	"psmkit/internal/obs"
	"psmkit/internal/psm"
	"psmkit/internal/trace"
)

// This file is the engine's shard face: the accessors a
// shard.Coordinator uses to run several engines as one logical model.
// The coordinator decides the kept atom set from the union of every
// shard's statistics and imposes it here; the engine's epoch cache
// (ensureEpoch) is keyed on whatever kept set arrives, so local
// Snapshot use and managed shard use share one implementation.

// InputColumns resolves the configured primary-input signal names to
// schema column indices (every signal when names is empty). The
// coordinator validates a schema against its input configuration once,
// before any session reaches a shard, with exactly the engine's rule.
func InputColumns(sigs []trace.Signal, names []string) ([]int, error) {
	return inputColumns(sigs, names)
}

// MiningStats returns a consistent cut of the engine's mining evidence
// over completed sessions: a copy of the per-candidate statistics, the
// total row count they cover, and the number of completed traces. The
// coordinator sums these across shards — AtomStats fields are exact
// integer counts, so the sum equals a single engine's statistics over
// the union of the sessions (mining.MergeStats' losslessness) — and
// passes each shard's trace count back to ExportChains or
// ProvenanceChains, so chains and statistics describe the same
// completed-session prefix while ingest goes on.
func (e *Engine) MiningStats() (stats []mining.AtomStats, rows, traces int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]mining.AtomStats(nil), e.stats...), e.totalRows, len(e.completed)
}

// ShardExport is one engine's contribution to a cross-shard snapshot,
// everything shard-local: trace indices count this engine's completions
// from zero and proposition ids are this engine's intern order. The
// coordinator re-interns PropKeys into its canonical global dictionary
// and remaps the chains; Chains share the engine's immutable storage and
// must not be mutated.
type ShardExport struct {
	// Traces is the completed-session count this export covers
	// (== len(Chains)): the first Traces sessions in completion order.
	Traces int
	// PropKeys maps each shard-local proposition id to its kept-set
	// truth signature — the dictionary re-intern source.
	PropKeys []uint64
	// Chains are the per-session simplified chains in completion order;
	// their states carry the calibration sums.
	Chains []*psm.Chain
}

// ExportChains brings the epoch cache up to date for the imposed kept
// atom set over the first traces completed sessions — the count of a
// MiningStats cut; sessions completed since stay out — and exports
// their chains. Successive calls must not lower traces. A zero count
// exports the zero ShardExport.
//
// Interleaving ExportChains with local Snapshot calls is safe but
// counterproductive: whenever the imposed set differs from the locally
// selected one each call rebuilds the other's epoch. A coordinator-
// managed engine should be snapshotted only through its coordinator.
func (e *Engine) ExportChains(ctx context.Context, keptIdx []int, traces int) (ShardExport, error) {
	ctx, span := obs.Start(ctx, "export_chains", obs.KV("traces", traces))
	defer span.End()
	if traces == 0 {
		return ShardExport{}, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, err := e.ensureEpoch(ctx, keptIdx, traces); err != nil {
		return ShardExport{}, err
	}
	// Later calls only append past traces (a rebuild starts a new
	// slice), so the export shares the cache's chain storage.
	return ShardExport{
		Traces:   traces,
		PropKeys: e.dict.Snapshot().PropKeys,
		Chains:   e.chains[:traces:traces],
	}, nil
}

// ProvenanceChains replays this engine's chain builds for the first
// traces completed sessions (a MiningStats cut's count) for a
// cross-shard provenance audit: fresh chains (never the epoch cache)
// interned into the caller's dictionary under the imposed kept set,
// tagged with global trace indices base, base+1, … so the decisions
// recorded into the context's provenance log carry canonical trace
// numbers. The coordinator calls shards in index order, which makes the
// interleaved intern sequence equal the single-engine replay's.
func (e *Engine) ProvenanceChains(ctx context.Context, keptIdx []int, dict *mining.Dictionary, base, traces int) ([]*psm.Chain, error) {
	e.mu.Lock()
	completed := e.completed[:traces]
	e.mu.Unlock()
	chains := make([]*psm.Chain, 0, traces)
	for i, d := range completed {
		c := chainOfSession(ctx, dict, propIDsOf(dict, keptIdx, d), base+i, d, e.cfg.Merge)
		if c == nil {
			return nil, fmt.Errorf("stream: trace %d: proposition trace too short to expose a temporal pattern", base+i)
		}
		chains = append(chains, c)
	}
	return chains, nil
}
