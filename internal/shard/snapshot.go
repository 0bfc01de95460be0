package shard

import (
	"context"
	"fmt"
	"sync"
	"time"

	"psmkit/internal/mining"
	"psmkit/internal/obs"
	"psmkit/internal/psm"
	"psmkit/internal/stream"
)

// holdAll parks every shard worker at a barrier: a hold task is queued
// behind whatever each shard already has, and once a worker reaches it
// the shard's queue prefix is fully applied and the worker touches its
// engine no further until released. The returned release is idempotent
// and must always be called. Holding all shards gives the snapshot a
// consistent per-shard cut — each shard's statistics, chains and
// calibration series describe exactly the same completed-session
// prefix. (Cross-shard skew is harmless: any union of per-shard
// prefixes is a valid session set, and the model is pinned to equal a
// single engine over precisely that set.)
func (c *Coordinator) holdAll(ctx context.Context) (release func(), err error) {
	helds := make([]chan struct{}, len(c.shards))
	releases := make([]chan struct{}, len(c.shards))
	var once sync.Once
	release = func() {
		once.Do(func() {
			for _, r := range releases {
				if r != nil {
					close(r)
				}
			}
		})
	}
	for i, sh := range c.shards {
		helds[i] = make(chan struct{})
		releases[i] = make(chan struct{})
		if err := sh.enqueueBlocking(task{kind: taskHold, held: helds[i], release: releases[i]}); err != nil {
			releases[i] = nil // never queued: nothing will wait on it
			release()
			return nil, err
		}
	}
	for i := range helds {
		select {
		case <-helds[i]:
		case <-ctx.Done():
			release()
			return nil, ctx.Err()
		case <-c.stopc:
			release()
			return nil, errClosed
		}
	}
	return release, nil
}

// globalCut is the fleet-wide mining evidence read under a hold.
type globalCut struct {
	stats  []mining.AtomStats
	rows   int
	traces int
}

// miningCut sums the shards' mining statistics. AtomStats fields are
// exact integer counts, so the sum equals a single engine's statistics
// over the union of the shards' sessions — the global kept-set decision
// is exactly the one engine's. Caller holds the shards.
func (c *Coordinator) miningCut(candidates []mining.Atom) globalCut {
	cut := globalCut{stats: make([]mining.AtomStats, len(candidates))}
	for _, sh := range c.shards {
		st, rows, traces := sh.eng.MiningStats()
		if len(st) > 0 {
			mining.MergeStats(cut.stats, st)
		}
		cut.rows += rows
		cut.traces += traces
	}
	return cut
}

// Snapshot materializes the fleet's current model: byte-identical to a
// single stream.Engine (and so to pipeline.BuildModel) over the same
// sessions in canonical order — shard-major, each shard's sessions in
// its completion order — for any shard count and any interleaving.
//
// The cut is taken under a fleet-wide hold (statistics and chains of
// one consistent per-shard prefix); the hold is released before the
// expensive join, which runs on immutable exports. Each snapshot folds
// the remapped chains through a fresh psm.Joiner that shares one
// cross-snapshot verdict memo, reset whenever the globally-selected
// kept atom set moves (a global epoch boundary, mirroring
// psm.Joiner.Reset).
func (c *Coordinator) Snapshot(ctx context.Context) (*psm.Model, error) {
	//psmlint:ignore nondet-source join-latency metric only; never reaches the model
	start := time.Now()
	defer func() {
		// Recorded on every outcome, including errors and cancellations —
		// see Engine.Snapshot for why failed joins must show up here.
		//psmlint:ignore nondet-source join-latency metric only; never reaches the model
		el := time.Since(start)
		c.mJoinNanos.Add(el.Nanoseconds())
		ms := float64(el.Nanoseconds()) / 1e6
		c.hJoin.Observe(ms)
		c.hJoinWin.Observe(ms)
	}()
	if obs.RegistryFrom(ctx) == nil {
		// Bill the global join's merge counters to the coordinator
		// registry so they surface on /metrics.
		ctx = obs.WithRegistry(ctx, c.reg)
	}
	ctx, span := obs.Start(ctx, "snapshot", obs.KV("shards", len(c.shards)))
	defer span.End()
	c.snapMu.Lock()
	defer c.snapMu.Unlock()

	c.mu.Lock()
	schema, candidates := c.schema, c.candidates
	c.mu.Unlock()
	if len(candidates) == 0 {
		return nil, fmt.Errorf("shard: %w", stream.ErrNoTraces)
	}

	release, err := c.holdAll(ctx)
	if err != nil {
		return nil, err
	}
	defer release()

	cut := c.miningCut(candidates)
	if cut.traces == 0 {
		return nil, fmt.Errorf("shard: %w", stream.ErrNoTraces)
	}
	idx := mining.SelectIndices(candidates, cut.stats, cut.rows, c.cfg.Stream.Mining)
	if len(idx) == 0 {
		return nil, fmt.Errorf("shard: no atomic proposition survived filtering (%d candidates over %d instants)",
			len(candidates), cut.rows)
	}

	// Global epoch accounting: a moved kept set voids every shard's
	// chains (they rebuild inside ExportChains) and every memoized
	// verdict (different propositions, same moments would be a lie —
	// see psm.Joiner.Reset for the same boundary in the fold engine).
	rebuild := !equalInts(idx, c.lastKept)
	if rebuild {
		c.lastKept = append([]int(nil), idx...)
		c.memo.Reset()
		span.SetAttr("rebuild", true)
	}

	exps := make([]stream.ShardExport, len(c.shards))
	for i, sh := range c.shards {
		if exps[i], err = sh.eng.ExportChains(ctx, idx); err != nil {
			return nil, err
		}
	}
	// The exports are immutable copies/shared-immutable storage: the
	// expensive dictionary merge and join below run with the fleet
	// already ingesting again.
	release()

	kept := make([]mining.Atom, len(idx))
	for i, ci := range idx {
		kept[i] = candidates[ci]
	}
	gdict := mining.NewDictionary(schema, kept)

	// Canonical re-intern: shards in index order, each shard's local
	// proposition ids in order. A shard dictionary's id order is the
	// first-appearance order over that shard's sessions, so this global
	// intern sequence is exactly the single engine's over the canonical
	// session order — ids match byte for byte.
	total := 0
	for _, exp := range exps {
		total += exp.Traces
	}
	chains := make([]*psm.Chain, 0, total)
	base := 0
	for _, exp := range exps {
		props := make([]int, len(exp.PropKeys))
		for j, key := range exp.PropKeys {
			props[j] = gdict.Intern(key)
		}
		for j, ch := range exp.Chains {
			chains = append(chains, remapChain(ch, gdict, props, base+j))
		}
		base += exp.Traces
	}

	j := psm.NewJoinerMemo(c.memo)
	for _, ch := range chains {
		j.Add(ctx, ch)
	}
	pooled := j.Pooled()
	snap := j.Snapshot(ctx)
	if !c.cfg.Stream.SkipCalibration {
		// The shard chains carry their calibration sums (remapChain keeps
		// them), so the served states fit without any stored series.
		psm.CalibrateCtx(ctx, snap, nil, nil, nil, c.cfg.Stream.Calibration)
	}
	// gdict is private to this snapshot (chains are discarded), so the
	// served model can own it directly; EvalRow readers never race.
	snap.Dict = gdict

	c.mSnapshots.Inc()
	if rebuild {
		c.mRebuilds.Inc()
	} else {
		c.mDelta.Inc()
	}
	c.gPooled.Set(float64(pooled))
	c.gServed.Set(float64(len(snap.States)))
	span.SetAttr("states", len(snap.States))
	return snap, nil
}

// Provenance re-derives every mergeability decision of the fleet's
// current model, exactly as a single engine over the canonical session
// order would (see Engine.Provenance): fresh global dictionary, chain
// replays shard by shard in index order with canonical trace indices,
// one psm.JoinCtx over every chain. The hold lasts through the replay —
// the kept set and the replayed sessions must be one cut.
func (c *Coordinator) Provenance(ctx context.Context) ([]obs.MergeDecision, error) {
	ctx, span := obs.Start(ctx, "provenance", obs.KV("shards", len(c.shards)))
	defer span.End()
	c.snapMu.Lock()
	defer c.snapMu.Unlock()

	c.mu.Lock()
	schema, candidates := c.schema, c.candidates
	c.mu.Unlock()
	if len(candidates) == 0 {
		return nil, fmt.Errorf("shard: %w", stream.ErrNoTraces)
	}

	release, err := c.holdAll(ctx)
	if err != nil {
		return nil, err
	}
	defer release()

	cut := c.miningCut(candidates)
	if cut.traces == 0 {
		return nil, fmt.Errorf("shard: %w", stream.ErrNoTraces)
	}
	idx := mining.SelectIndices(candidates, cut.stats, cut.rows, c.cfg.Stream.Mining)
	if len(idx) == 0 {
		return nil, fmt.Errorf("shard: no atomic proposition survived filtering (%d candidates over %d instants)",
			len(candidates), cut.rows)
	}
	kept := make([]mining.Atom, len(idx))
	for i, ci := range idx {
		kept[i] = candidates[ci]
	}
	dict := mining.NewDictionary(schema, kept)

	log := obs.NewProvenanceLog()
	ctx = obs.WithProvenance(ctx, log)
	var chains []*psm.Chain
	base := 0
	for _, sh := range c.shards {
		cs, err := sh.eng.ProvenanceChains(ctx, idx, dict, base)
		if err != nil {
			return nil, err
		}
		chains = append(chains, cs...)
		base += len(cs)
	}
	psm.JoinCtx(ctx, chains, c.cfg.Stream.Merge)
	span.SetAttr("decisions", log.Len())
	return log.Decisions(), nil
}

// remapChain deep-copies one shard-local chain into the global
// coordinate system: proposition ids through the shard's re-intern
// table (props[local id] = global id) and every trace reference to the
// chain's canonical global index. Power attributes copy unchanged; the
// calibration sums are shared, since psm.Joiner.Add copies every state
// before the join merges into it. The remap is a bijective relabeling —
// distinct shard-local ids carry distinct signatures, so distinct
// global ids — and every merge decision downstream reads propositions
// only through sequence equality, so the relabeled chain joins exactly
// as the single engine's identically-labeled chain does. The source
// chain (the shard's epoch cache) is never touched.
func remapChain(c *psm.Chain, dict *mining.Dictionary, props []int, traceIdx int) *psm.Chain {
	out := &psm.Chain{Dict: dict, Trace: traceIdx, States: make([]*psm.State, len(c.States))}
	for i, s := range c.States {
		ns := &psm.State{
			ID:        s.ID,
			Alts:      make([]psm.Alt, len(s.Alts)),
			Power:     s.Power,
			Calib:     s.Calib,
			Intervals: make([]psm.Interval, len(s.Intervals)),
		}
		for j, a := range s.Alts {
			phases := make([]psm.Phase, len(a.Seq.Phases))
			for k, p := range a.Seq.Phases {
				phases[k] = psm.Phase{Prop: props[p.Prop], Kind: p.Kind}
			}
			ns.Alts[j] = psm.Alt{Seq: psm.Sequence{Phases: phases}, Count: a.Count}
		}
		for j, iv := range s.Intervals {
			ns.Intervals[j] = psm.Interval{Trace: traceIdx, Start: iv.Start, Stop: iv.Stop}
		}
		out.States[i] = ns
	}
	return out
}

// ShardMetric is one shard's row of the fleet metrics: the shard
// engine's ingest counters plus the queue the coordinator runs in front
// of it.
type ShardMetric struct {
	Shard           int   `json:"shard"`
	RecordsIngested int64 `json:"records_ingested"`
	OpenSessions    int   `json:"open_sessions"`
	TracesCompleted int   `json:"traces_completed"`
	Rebuilds        int   `json:"rebuilds"`
	QueueDepth      int   `json:"queue_depth"`
	QueueCap        int   `json:"queue_cap"`
	Shed            int64 `json:"shed_total"`
}

// ShardMetrics returns the per-shard rows in shard order.
func (c *Coordinator) ShardMetrics() []ShardMetric {
	rows := make([]ShardMetric, len(c.shards))
	for i, sh := range c.shards {
		em := sh.eng.Metrics()
		rows[i] = ShardMetric{
			Shard:           i,
			RecordsIngested: em.RecordsIngested,
			OpenSessions:    em.OpenSessions,
			TracesCompleted: em.TracesCompleted,
			Rebuilds:        em.Rebuilds,
			QueueDepth:      len(sh.q),
			QueueCap:        cap(sh.q),
			Shed:            sh.mShed.Value(),
		}
	}
	return rows
}

// Metrics aggregates the fleet into one stream.Metrics: ingest counters
// sum across shards; the snapshot accounting (snapshots, rebuilds,
// states pooled/served, join latency) is the coordinator's own — it
// describes the global cross-shard join, the only join that runs under
// a coordinator.
func (c *Coordinator) Metrics() stream.Metrics {
	var m stream.Metrics
	for _, sh := range c.shards {
		em := sh.eng.Metrics()
		m.RecordsIngested += em.RecordsIngested
		m.OpenSessions += em.OpenSessions
		m.TracesCompleted += em.TracesCompleted
	}
	hs := c.hJoin.Snapshot()
	m.Snapshots = int(c.mSnapshots.Value())
	m.Rebuilds = int(c.mRebuilds.Value())
	m.DeltaSnapshots = int(c.mDelta.Value())
	m.StatesPooled = int(c.gPooled.Value())
	m.StatesServed = int(c.gServed.Value())
	m.StatesMerged = m.StatesPooled - m.StatesServed
	m.JoinNanos = c.mJoinNanos.Value()
	m.JoinLatency = make([]int, len(hs.Counts))
	for i, n := range hs.Counts {
		m.JoinLatency[i] = int(n)
	}
	return m
}

// Shed returns the total number of shed append batches across shards.
func (c *Coordinator) Shed() int64 { return c.mShed.Value() }

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
