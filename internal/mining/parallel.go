package mining

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"psmkit/internal/logic"
	"psmkit/internal/obs"
	"psmkit/internal/trace"
)

// MineParallel is the miner: one candidate-atom reduction per trace,
// fanned out over a bounded worker pool, then the filtering decision and
// a sequential intern replay. Mine is MineParallel at one worker, and
// psmd's streaming engine reduces its sessions with the same Observer, so
// the three share one reduction:
//
//   - each trace passes once through Observer.ObserveBatch, which packs
//     every row's candidate truth bits and accumulates the trace's exact
//     AtomStats; runs of rows with equal bits are stored once;
//   - the per-trace statistics merge (MergeStats) and SelectIndices picks
//     the kept atoms; every field is an exact count, so the decision
//     does not depend on how the traces were split over workers;
//   - each stored run's kept-atom signature is projected from its
//     candidate bits (ProjectSignature) and interned sequentially in
//     trace order, so every proposition gets the id of its first
//     occurrence and no atom is evaluated twice.
//
// The sequential replay is also the interning strategy that keeps the
// signature index safe under concurrency: intern runs on a single
// goroutine only, and once MineParallel (or Mine) returns, the index is
// never written again — EvalRow is then safe for any number of
// concurrent readers.
//
// workers ≤ 1 reduces on the calling goroutine; callers resolve a
// GOMAXPROCS default themselves (pipeline.Config.Parallelism). The trace
// is the unit of parallelism: a one-trace set is reduced on one
// goroutine. Cancelling ctx aborts the scan and returns ctx.Err().
func MineParallel(ctx context.Context, traces []*trace.Functional, cfg Config, workers int) (*Dictionary, []*PropTrace, error) {
	ctx, span := obs.Start(ctx, "mine", obs.KV("traces", len(traces)))
	defer span.End()
	total, err := validateTraces(traces)
	if err != nil {
		return nil, nil, err
	}
	signals := traces[0].Signals
	candidates := CandidateAtoms(signals)

	reduced, stats, err := reduceTraces(ctx, candidates, traces, workers)
	if err != nil {
		return nil, nil, err
	}
	keptIdx := SelectIndices(candidates, stats, total, cfg)
	if len(keptIdx) == 0 {
		return nil, nil, fmt.Errorf("mining: no atomic proposition survived filtering (%d candidates over %d instants)",
			len(candidates), total)
	}
	kept := make([]Atom, len(keptIdx))
	for k, ci := range keptIdx {
		kept[k] = candidates[ci]
	}
	span.SetAttr("atoms", len(kept))
	if reg := obs.RegistryFrom(ctx); reg != nil {
		reg.Counter("mining_traces_total").Add(int64(len(traces)))
		reg.Counter("mining_instants_total").Add(int64(total))
		reg.Counter("mining_atoms_candidates_total").Add(int64(len(candidates)))
		reg.Counter("mining_atoms_kept_total").Add(int64(len(kept)))
	}

	d := &Dictionary{
		Signals: signals,
		Atoms:   kept,
		index:   map[uint64]int{},
	}

	// Phase 2 (sequential): project each run's candidate bits onto the
	// kept atoms and intern the signature in trace order — one map
	// lookup per run, not per instant.
	_, rewriteSpan := obs.Start(ctx, "mine.rewrite")
	words := SigWords(len(candidates))
	out := make([]*PropTrace, len(traces))
	for i, r := range reduced {
		ids := make([]int, 0, traces[i].Len())
		for k, n := range r.lens {
			id := d.intern(ProjectSignature(r.bits[k*words:(k+1)*words], keptIdx))
			for ; n > 0; n-- {
				ids = append(ids, id)
			}
		}
		out[i] = &PropTrace{IDs: ids}
	}
	rewriteSpan.End()
	obs.RegistryFrom(ctx).Counter("mining_props_total").Add(int64(d.NumProps()))
	return d, out, nil
}

// reduceChunk is the number of rows reduceTrace hands ObserveBatch at a
// time: large enough to amortize the per-batch atom setup, small enough
// that the packed bits of one chunk stay in cache.
const reduceChunk = 256

// reducedTrace is one trace after the candidate reduction: its exact
// per-candidate statistics and its rows' packed candidate truth bits,
// run-length encoded — run k holds lens[k] consecutive rows whose bits
// are bits[k*words:(k+1)*words].
type reducedTrace struct {
	stats []AtomStats
	bits  []uint64
	lens  []int
}

// reduceTraces is the miner's phase 1: every trace's candidate reduction,
// fanned out over traces under a "mine.stats" span, and the candidates'
// statistics over the whole set (the per-trace partials merged).
func reduceTraces(ctx context.Context, candidates []Atom, traces []*trace.Functional, workers int) ([]*reducedTrace, []AtomStats, error) {
	_, span := obs.Start(ctx, "mine.stats", obs.KV("candidates", len(candidates)))
	defer span.End()
	reduced := make([]*reducedTrace, len(traces))
	err := fanOut(ctx, workers, len(traces), func(i int) {
		reduced[i] = reduceTrace(candidates, traces[i])
	})
	if err != nil {
		return nil, nil, err
	}
	stats := make([]AtomStats, len(candidates))
	for _, r := range reduced {
		MergeStats(stats, r.stats)
	}
	return reduced, stats, nil
}

// reduceTrace runs the candidate reduction over one trace. It reads only
// immutable trace storage and writes only its own result, so traces
// reduce concurrently.
func reduceTrace(candidates []Atom, ft *trace.Functional) *reducedTrace {
	o := NewObserver(candidates)
	words := SigWords(len(candidates))
	r := &reducedTrace{}
	rows := make([][]logic.Vector, 0, reduceChunk)
	var buf []uint64
	for start := 0; start < ft.Len(); start += reduceChunk {
		rows = rows[:0]
		for t := start; t < ft.Len() && t < start+reduceChunk; t++ {
			rows = append(rows, ft.Row(t))
		}
		buf = o.ObserveBatch(rows, buf)
		for k := range rows {
			row := buf[k*words : (k+1)*words]
			if n := len(r.lens); n > 0 && slices.Equal(r.bits[(n-1)*words:], row) {
				r.lens[n-1]++
				continue
			}
			r.bits = append(r.bits, row...)
			r.lens = append(r.lens, 1)
		}
	}
	r.stats = o.Stats()
	return r
}

// fanOut runs fn(i) for every i in [0, n) on up to workers goroutines
// (work-stealing over an atomic cursor, so uneven item costs balance).
// A cancelled ctx stops workers from picking up new items and is
// reported as the return value; items already started still finish.
func fanOut(ctx context.Context, workers, n int, fn func(int)) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}
