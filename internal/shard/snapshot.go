package shard

import (
	"context"
	"fmt"
	"time"

	"psmkit/internal/mining"
	"psmkit/internal/obs"
	"psmkit/internal/psm"
	"psmkit/internal/stream"
)

// globalCut is the fleet-wide mining evidence of one cut: the summed
// statistics and row count, and each shard's completed-session count
// they cover (exported back to the shard, so its chains describe the
// same sessions).
type globalCut struct {
	stats  []mining.AtomStats
	rows   int
	traces int
	counts []int
}

// miningCut sums the shards' mining statistics. AtomStats fields are
// exact integer counts, so the sum equals a single engine's statistics
// over the union of the shards' sessions — the global kept-set decision
// is exactly the one engine's. Each shard's statistics and count are
// read together; cross-shard skew is harmless, since any union of
// per-shard prefixes is a valid session set, and the model is pinned to
// equal a single engine over precisely that set.
func (c *Coordinator) miningCut(candidates []mining.Atom) globalCut {
	cut := globalCut{stats: make([]mining.AtomStats, len(candidates)), counts: make([]int, len(c.shards))}
	for i, sh := range c.shards {
		st, rows, traces := sh.eng.MiningStats()
		if len(st) > 0 {
			mining.MergeStats(cut.stats, st)
		}
		cut.rows += rows
		cut.traces += traces
		cut.counts[i] = traces
	}
	return cut
}

// Snapshot materializes the fleet's current model: byte-identical to a
// single stream.Engine (and so to pipeline.BuildModel) over the same
// sessions in canonical order — shard-major, each shard's sessions in
// its completion order — for any shard count and any interleaving.
//
// The cut reads each shard's statistics with its completed-session
// count, and each shard then exports the chains of exactly that prefix,
// so ingest never stops for a snapshot; the join runs on immutable
// exports.
//
// The join is a persistent fold: one psm.Joiner over one global
// dictionary, kept across snapshots together with, per shard, the
// chains and proposition keys already folded. The folded sequence is a
// prefix of the canonical one as long as the kept atom set has not
// moved and no shard before the last shard already folded has gained a
// chain; the snapshot then interns only the new shard-local keys and
// remaps and folds only the new chains — psm.Joiner's left fold makes
// that equal to folding everything. Otherwise it starts a fresh fold
// over every chain, sharing the cross-snapshot verdict memo
// (psm.NewJoinerMemo), which resets whenever the globally-selected kept
// atom set moves (a global epoch boundary, mirroring psm.Joiner.Reset).
// At one shard every snapshot under an unchanged kept set folds only
// the new chains.
//
// A model is built once per generation: when no shard has completed a
// session since the last successful snapshot, Snapshot returns that
// same *psm.Model without selecting, exporting or folding anything
// (span attr fold=cached, psmd_snapshots_cached_total). Per-shard
// completed-session counts only grow and the model is a deterministic
// function of the closed sessions in canonical order, so equal counts
// mean a byte-identical model. The returned model is therefore shared
// between callers and across calls, and must not be mutated: callers
// only read it (check.VerifyPSM, WriteJSON, WriteDOT, powersim.New).
// Errors and cancelled snapshots are never cached.
func (c *Coordinator) Snapshot(ctx context.Context) (*psm.Model, error) {
	start := time.Now()
	cached := false
	defer func() {
		// Recorded on every outcome that ran a join, including errors and
		// cancellations — see Engine.Snapshot for why failed joins must
		// show up here. A cache hit ran none.
		if cached {
			return
		}
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

	cut := c.miningCut(candidates)
	if c.last != nil && equalInts(cut.counts, c.lastCounts) {
		cached = true
		c.mCached.Inc()
		span.SetAttr("fold", "cached")
		return c.last, nil
	}
	if cut.traces == 0 {
		return nil, fmt.Errorf("shard: %w", stream.ErrNoTraces)
	}
	idx := mining.SelectIndices(candidates, cut.stats, cut.rows, c.cfg.Stream.Mining)
	if len(idx) == 0 {
		return nil, fmt.Errorf("shard: no atomic proposition survived filtering (%d candidates over %d instants)",
			len(candidates), cut.rows)
	}

	// Global epoch accounting: a moved kept set voids every shard's
	// chains (they rebuild inside ExportChains), the fold, and every
	// memoized verdict (different propositions, same moments would be a
	// lie — see psm.Joiner.Reset for the same boundary in the fold
	// engine).
	rebuild := !equalInts(idx, c.lastKept)
	if rebuild {
		c.lastKept = append([]int(nil), idx...)
		c.memo.Reset()
		c.joiner = nil
		span.SetAttr("rebuild", true)
	}

	exps := make([]stream.ShardExport, len(c.shards))
	for i, sh := range c.shards {
		var err error
		if exps[i], err = sh.eng.ExportChains(ctx, idx, cut.counts[i]); err != nil {
			return nil, err
		}
	}

	if c.joiner == nil || !c.extendsFold(exps) {
		kept := make([]mining.Atom, len(idx))
		for i, ci := range idx {
			kept[i] = candidates[ci]
		}
		c.gdict = mining.NewDictionary(schema, kept)
		c.joiner = psm.NewJoinerMemo(c.memo)
		c.folded = make([]foldedShard, len(c.shards))
		span.SetAttr("fold", "fresh")
	} else {
		span.SetAttr("fold", "delta")
	}

	// Canonical re-intern and fold: shards in index order, each shard's
	// new local proposition ids in order, then its new chains. A shard
	// dictionary's id order is the first-appearance order over that
	// shard's sessions, so this global intern sequence is exactly the
	// single engine's over the canonical session order — ids match byte
	// for byte.
	base := 0
	for i, exp := range exps {
		f := &c.folded[i]
		for _, key := range exp.PropKeys[len(f.props):] {
			f.props = append(f.props, c.gdict.Intern(key))
		}
		for j := f.chains; j < exp.Traces; j++ {
			c.joiner.Add(ctx, remapChain(exp.Chains[j], c.gdict, f.props, base+j))
		}
		f.chains = exp.Traces
		base += exp.Traces
	}

	pooled := c.joiner.Pooled()
	snap := c.joiner.Snapshot(ctx)
	if !c.cfg.Stream.SkipCalibration {
		// The shard chains carry their calibration sums (remapChain keeps
		// them), so the served states fit without any stored series.
		psm.CalibrateCtx(ctx, snap, nil, nil, nil, c.cfg.Stream.Calibration)
	}
	// The global dictionary keeps growing with later snapshots: freeze a
	// private copy so the served model's EvalRow readers never race them.
	snap.Dict = mining.FromSnapshot(c.gdict.Snapshot())

	c.mSnapshots.Inc()
	if rebuild {
		c.mRebuilds.Inc()
	} else {
		c.mDelta.Inc()
	}
	c.gPooled.Set(float64(pooled))
	c.gServed.Set(float64(len(snap.States)))
	span.SetAttr("states", len(snap.States))
	c.last, c.lastCounts = snap, cut.counts
	return snap, nil
}

// foldedShard is one shard's contribution to the persistent fold.
type foldedShard struct {
	props  []int // shard-local proposition id → global id
	chains int   // chains folded, in the shard's completion order
}

// extendsFold reports whether the exports extend the persistent fold in
// canonical order: every shard before the last shard already folded
// still has exactly the chains and proposition keys it had, so what was
// folded is a prefix of the shard-major sequence. (The kept set is
// checked by the caller; later shards may have grown.)
func (c *Coordinator) extendsFold(exps []stream.ShardExport) bool {
	last := -1
	for i, f := range c.folded {
		if f.chains > 0 {
			last = i
		}
	}
	for i := 0; i < last; i++ {
		if exps[i].Traces != c.folded[i].chains || len(exps[i].PropKeys) != len(c.folded[i].props) {
			return false
		}
	}
	return true
}

// Provenance re-derives every mergeability decision of the fleet's
// current model — the audit trail behind GET /v1/provenance — exactly
// as the batch flow over the canonical session order would: fresh
// global dictionary, chain replays shard by shard in index order with
// canonical trace indices, one psm.JoinCtx over every chain. The replay
// covers exactly the sessions of the cut the kept set was selected on,
// and never touches the epoch caches or the persistent fold.
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
	for i, sh := range c.shards {
		cs, err := sh.eng.ProvenanceChains(ctx, idx, dict, base, cut.counts[i])
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

// ingest sums the shard engines' ingest counters (records ingested,
// open sessions, traces completed); the other fields stay zero.
func (c *Coordinator) ingest() stream.Metrics {
	var m stream.Metrics
	for _, sh := range c.shards {
		em := sh.eng.Metrics()
		m.RecordsIngested += em.RecordsIngested
		m.OpenSessions += em.OpenSessions
		m.TracesCompleted += em.TracesCompleted
	}
	return m
}

// Metrics aggregates the fleet into one stream.Metrics: ingest counters
// sum across shards; the snapshot accounting (snapshots, rebuilds,
// states pooled/served, join latency) is the coordinator's own — it
// describes the global cross-shard join, the only join that runs under
// a coordinator. Snapshots counts models built; a snapshot that reused
// the last model counts only in psmd_snapshots_cached_total.
func (c *Coordinator) Metrics() stream.Metrics {
	m := c.ingest()
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
