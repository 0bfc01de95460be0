package stream

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"psmkit/internal/logic"
	"psmkit/internal/mining"
	"psmkit/internal/obs"
	"psmkit/internal/pipeline"
	"psmkit/internal/psm"
	"psmkit/internal/trace"
)

// ErrSessionCap (Open at MaxOpenSessions) and ErrNoTraces (a snapshot
// or provenance replay before any session completed) are wrapped by the
// engine and shard.Coordinator; callers match them with errors.Is.
var (
	ErrSessionCap = errors.New("open-session cap reached")
	ErrNoTraces   = errors.New("no completed traces")
)

// Config tunes the streaming engine. The embedded flow config is the
// batch pipeline's — equality with pipeline.BuildModel holds per policy
// set — and its Workers bounds the goroutines a snapshot's chain rebuild
// fans out over.
type Config struct {
	pipeline.Config
	// Inputs names the primary-input signals (calibration regressor and
	// the estimate endpoint). Unknown names fail the first session open.
	Inputs []string
	// MaxRecords caps the instants one session may append (0 = unlimited):
	// the ingest-side memory bound against hostile streams.
	MaxRecords int
	// MaxOpenSessions caps concurrently open sessions (0 = unlimited).
	MaxOpenSessions int
}

// DefaultConfig returns the paper-reproduction policies with serving-
// grade ingestion bounds.
func DefaultConfig() Config {
	return Config{
		Config:          pipeline.DefaultConfig(),
		MaxRecords:      1 << 22,
		MaxOpenSessions: 256,
	}
}

// sigRun is one maximal run of identical candidate-atom signatures: the
// session's compact storage. Runs replace the raw logic vectors — per
// instant the engine keeps only the power value (8 bytes) and the input
// Hamming distance (a 4-byte bit count), plus one packed bitset per
// signature change.
type sigRun struct {
	sig []uint64
	n   int
}

// sessionData is the per-trace evidence a snapshot rebuilds from.
type sessionData struct {
	runs  []sigRun
	power []float64
	hd    []uint32
	rows  int
}

// Metrics is a point-in-time snapshot of the engine's counters. All
// fields except RecordsIngested are read in one critical section of the
// engine lock — the same epoch as the model cache — so a /metrics
// scrape cannot observe a half-applied session completion.
// RecordsIngested is the one deliberately lock-free counter: it counts
// appends the moment they land (including still-open sessions, rolled
// back on abort), so it can run ahead of TracesCompleted but never
// behind it.
type Metrics struct {
	RecordsIngested int64
	OpenSessions    int
	TracesCompleted int
	Snapshots       int
	// StatesPooled / StatesServed are the last snapshot's pre-join and
	// post-join state counts; StatesMerged is their difference (how much
	// the join collapsed).
	StatesPooled int
	StatesServed int
	StatesMerged int
	// Rebuilds counts snapshots that invalidated the epoch cache (the
	// kept atom set changed) and rebuilt every chain; incremental
	// snapshots only fold the sessions completed since the previous one.
	Rebuilds int
	// DeltaSnapshots counts snapshots served from a warm epoch cache:
	// only the sessions completed since the previous snapshot were
	// folded into the persistent join, and the collapse ran over the
	// kept states instead of the whole pool. Rebuilds + DeltaSnapshots
	// equals the successful snapshot count.
	DeltaSnapshots int
	// JoinNanos is the total time spent inside Snapshot; JoinLatency is
	// its distribution (see LatencyBuckets). Failed and cancelled
	// snapshots are included — an operator alerting on join latency
	// must see the time burned before an abort too.
	JoinNanos   int64
	JoinLatency []int
}

// LatencyBuckets are the upper bounds (exclusive, in milliseconds) of
// the join latency histogram; the overflow count follows the last
// bucket. The geometry is exponential from 1µs so the sub-millisecond
// joins a warm epoch cache produces spread over real buckets instead of
// piling into the first one.
var LatencyBuckets = obs.ExponentialBuckets(0.001, 4, 12)

// Engine ingests trace sessions and serves live model snapshots.
//
// Equality with the batch flow is the design constraint, inherited from
// internal/pipeline and extended in time: after any set of sessions has
// completed — in whatever record interleaving — Snapshot returns a model
// whose JSON and DOT exports are byte-identical to pipeline.BuildModel
// over the same traces listed in session-completion order. The pieces:
//
//   - mining decisions are made by the exact batch code path
//     (mining.SelectIndices) on statistics accumulated record by record
//     (exact integer counts, so per-session partials fold losslessly);
//   - each record is reduced on arrival to its packed candidate-atom
//     truth bitset (lossless for every downstream mining decision), its
//     power value and its input Hamming distance; the raw valuation is
//     discarded immediately — the memory the daemon holds per instant is
//     12 bytes plus amortized run-length-encoded bitsets;
//   - proposition ids are interned sequentially in trace order
//     (mining.MineParallel's replay strategy); each session's signature
//     runs expand into its proposition trace, from which the batch
//     PSMGenerator (psm.Generate) builds the chain, simplified with the
//     batch psm.Simplify;
//   - each chain's states carry exact calibration sums
//     (psm.CarryCalibration), filled once per session from the stored
//     power/HD series; merges pool them exactly, so the served states'
//     sums equal the batch calibration's walk over their intervals;
//   - the live model is a persistent incremental join (psm.Joiner, the
//     batch flow's join engine too): each completed chain is folded once
//     through the join's greedy clustering pass — a left fold, so
//     folding chains in completion order equals folding them all from
//     scratch — and each Snapshot cheaply clones the fold's kept states
//     and runs only the order-dependent fixpoint on the clone, then
//     calibrates the served states from their carried sums.
//     Steady-state snapshot cost therefore scales with the number of
//     kept states and the new evidence since the last snapshot —
//     collapse, calibration and the cache update alike — not with the
//     total pooled states or stored records (pinned by
//     TestSteadyStateSnapshotCost and BenchmarkSnapshotSteadyState).
//
// The kept atom set depends on global statistics, so a completed session
// can invalidate earlier decisions; the engine detects this by comparing
// kept-atom indices per snapshot (an epoch) and rebuilds all chains from
// the stored bitsets only then, folding incrementally otherwise. An
// epoch change resets the joiner wholesale — fold, verdict memo and its
// accounting together (see psm.Joiner.Reset) — so everything the joiner
// reports describes the current epoch.
//
// psmd runs every engine as one shard of a shard.Coordinator: the
// coordinator imposes the globally-selected kept atom set through
// ExportChains instead of letting the engine select its own, and joins
// the shards' chains itself. The epoch cache works identically either
// way — it is keyed on whatever kept set the caller brings. Used on its
// own, an engine is the coordinator's reference: the parity suites and
// psmbench's correctness check build the expected model with Snapshot.
type Engine struct {
	cfg        Config
	candidates []mining.Atom // fixed per schema

	// Registry-backed instruments (handles resolved once at construction;
	// the registry itself serves Prometheus/JSON export). mRecords is the
	// lock-free append counter; everything else mutates under mu only.
	reg        *obs.Registry
	mRecords   *obs.Counter
	mTraces    *obs.Counter
	mSnapshots *obs.Counter
	mRebuilds  *obs.Counter
	mDelta     *obs.Counter
	mJoinNanos *obs.Counter
	gOpen      *obs.Gauge
	gPooled    *obs.Gauge
	gServed    *obs.Gauge
	hJoin      *obs.Histogram

	mu        sync.Mutex
	schema    []trace.Signal
	inputCols []int
	stats     []mining.AtomStats // over completed sessions
	totalRows int                // over completed sessions
	openCount int
	completed []*sessionData // trace order == completion order
	// epoch cache
	keptIdx []int
	dict    *mining.Dictionary
	chains  []*psm.Chain // per completed session; nil entry = too short
	joiner  *psm.Joiner  // incremental join over chains[0:built]
	built   int
}

// NewEngine returns an engine with no schema yet: the first session's
// header fixes it, exactly like the first trace of a batch run fixes the
// miner's schema.
func NewEngine(cfg Config) *Engine {
	reg := obs.NewRegistry()
	return &Engine{
		cfg:        cfg,
		reg:        reg,
		joiner:     psm.NewJoiner(cfg.Merge),
		mRecords:   reg.Counter("psmd_records_ingested_total"),
		mTraces:    reg.Counter("psmd_traces_completed_total"),
		mSnapshots: reg.Counter("psmd_snapshots_total"),
		mRebuilds:  reg.Counter("psmd_rebuilds_total"),
		mDelta:     reg.Counter("psmd_snapshots_delta_total"),
		mJoinNanos: reg.Counter("psmd_join_nanos_total"),
		gOpen:      reg.Gauge("psmd_sessions_open"),
		gPooled:    reg.Gauge("psmd_states_pooled"),
		gServed:    reg.Gauge("psmd_states_served"),
		hJoin:      reg.Histogram("psmd_join_latency_ms", LatencyBuckets),
	}
}

// Registry exposes the engine's metrics registry (for export surfaces
// like psmd's /metrics).
func (e *Engine) Registry() *obs.Registry { return e.reg }

// Session is one open trace being streamed in. It is single-producer:
// AppendBatch/Close/Abort must not be called concurrently on the same session,
// but any number of sessions proceed in parallel without contending on
// the engine (only Open and Close take the engine lock).
type Session struct {
	e      *Engine
	obs    *mining.Observer
	data   *sessionData
	prev   []logic.Vector
	batch  []uint64 // AppendBatch signature scratch, reused
	schema []trace.Signal
	done   bool
}

// Open starts a session for a trace over the given schema. The first
// session fixes the engine's schema; later sessions must match it
// (mining requires a uniform schema across the training set).
func (e *Engine) Open(sigs []trace.Signal) (*Session, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cfg.MaxOpenSessions > 0 && e.openCount >= e.cfg.MaxOpenSessions {
		return nil, fmt.Errorf("stream: %d sessions already open (limit %d): %w", e.openCount, e.cfg.MaxOpenSessions, ErrSessionCap)
	}
	if e.schema == nil {
		if len(sigs) == 0 {
			return nil, fmt.Errorf("stream: empty signal schema")
		}
		cols, err := inputColumns(sigs, e.cfg.Inputs)
		if err != nil {
			return nil, err
		}
		e.schema = append([]trace.Signal(nil), sigs...)
		e.inputCols = cols
		e.candidates = mining.CandidateAtoms(e.schema)
		e.stats = make([]mining.AtomStats, len(e.candidates))
	} else if !sameSchema(e.schema, sigs) {
		return nil, fmt.Errorf("stream: session schema differs from the engine's (%d signals)", len(e.schema))
	}
	e.openCount++
	e.gOpen.Set(float64(e.openCount))
	return &Session{
		e:      e,
		obs:    mining.NewObserver(e.candidates),
		data:   &sessionData{},
		schema: e.schema,
	}, nil
}

// InputCols returns the primary-input column indices (for the estimator).
func (e *Engine) InputCols() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]int(nil), e.inputCols...)
}

// AppendBatch consumes a batch of instants in one call: each row is
// reduced to its candidate bitset, power and input-HD samples, with the
// atom signatures computed together (mining.Observer.ObserveBatch) and
// the session's aggregates touched once instead of per record. The
// resulting session state is byte-identical to appending the rows one
// by one — pinned by TestAppendBatchMatchesSequential — and the batch is
// validated up front and appended atomically: on error nothing is
// appended.
//
// Row vectors are not retained beyond the NEXT AppendBatch call:
// the last row of the batch stays referenced as the input-HD history
// until the following call replaces it. Arena-backed callers therefore
// double-buffer two arenas (see the shard worker's handleLines).
func (s *Session) AppendBatch(rows [][]logic.Vector, powers []float64) error {
	if len(rows) != len(powers) {
		return fmt.Errorf("stream: batch has %d rows, %d powers", len(rows), len(powers))
	}
	if len(rows) == 0 {
		return nil
	}
	if s.done {
		return fmt.Errorf("stream: append to a closed session")
	}
	if max := s.e.cfg.MaxRecords; max > 0 && s.data.rows+len(rows) > max {
		return fmt.Errorf("stream: session exceeds the %d-record limit", max)
	}
	for _, row := range rows {
		if len(row) != len(s.schema) {
			return fmt.Errorf("stream: row has %d values, schema %d signals", len(row), len(s.schema))
		}
		for i, v := range row {
			if v.Width() != s.schema[i].Width {
				return fmt.Errorf("stream: signal %q width %d, value width %d", s.schema[i].Name, s.schema[i].Width, v.Width())
			}
		}
	}

	words := mining.SigWords(s.obs.NumAtoms())
	s.batch = s.obs.ObserveBatch(rows, s.batch)
	d := s.data
	for k := range rows {
		sig := s.batch[k*words : (k+1)*words]
		if n := len(d.runs); n > 0 && equalWords(d.runs[n-1].sig, sig) {
			d.runs[n-1].n++
		} else {
			d.runs = append(d.runs, sigRun{sig: append([]uint64(nil), sig...), n: 1})
		}
	}
	d.power = append(d.power, powers...)

	for k, row := range rows {
		prevRow := s.prev
		if k > 0 {
			prevRow = rows[k-1]
		}
		var hd uint32
		if prevRow != nil {
			for _, c := range s.e.inputCols {
				hd += uint32(row[c].HammingDistance(prevRow[c]))
			}
		}
		d.hd = append(d.hd, hd)
	}
	if s.prev == nil {
		s.prev = make([]logic.Vector, len(s.schema))
	}
	copy(s.prev, rows[len(rows)-1])

	d.rows += len(rows)
	s.e.mRecords.Add(int64(len(rows)))
	return nil
}

// Rows returns the number of records appended so far.
func (s *Session) Rows() int { return s.data.rows }

// Close completes the session: its trace joins the training set at the
// next index (completion order is trace order) and its statistics fold
// into the global mining decision. An empty session is an error — the
// batch miner rejects empty traces too — and is discarded. So is a
// session whose records all carry one candidate-atom signature: under
// any kept atom set its proposition trace is one run, which exposes no
// temporal pattern, and the batch generator would fail the whole build
// on it. Its records are rolled back like an aborted session's.
func (s *Session) Close() (traceIdx int, err error) {
	if s.done {
		return 0, fmt.Errorf("stream: session closed twice")
	}
	s.done = true
	if d := s.data; d.rows > 0 && len(d.runs) > 1 {
		// The engine holds a completed session's evidence for good: drop
		// the slack append left in its series (a 300-record session fed
		// in 256-record batches would otherwise keep 512 slots of each).
		// The copies run before the engine lock is taken.
		d.runs = exactCopy(d.runs)
		d.power = exactCopy(d.power)
		d.hd = exactCopy(d.hd)
	}
	e := s.e
	e.mu.Lock()
	defer e.mu.Unlock()
	e.openCount--
	e.gOpen.Set(float64(e.openCount))
	if s.data.rows == 0 {
		return 0, fmt.Errorf("stream: session is empty")
	}
	if len(s.data.runs) == 1 {
		e.mRecords.Add(-int64(s.data.rows))
		return 0, fmt.Errorf("stream: all %d records carry one candidate-atom signature: proposition trace too short to expose a temporal pattern", s.data.rows)
	}
	mining.MergeStats(e.stats, s.obs.Stats())
	e.totalRows += s.data.rows
	e.completed = append(e.completed, s.data)
	e.mTraces.Inc()
	return len(e.completed) - 1, nil
}

// Abort discards the session (client disconnect mid-upload): nothing it
// streamed reaches the model.
func (s *Session) Abort() {
	if s.done {
		return
	}
	s.done = true
	s.e.mu.Lock()
	s.e.openCount--
	s.e.gOpen.Set(float64(s.e.openCount))
	s.e.mRecords.Add(-int64(s.data.rows))
	s.e.mu.Unlock()
}

// Snapshot materializes the current model over every completed session:
// byte-identical to pipeline.BuildModel over the same traces. Cancelling
// ctx aborts the chain fan-out with ctx.Err(). psmd no longer calls it —
// it serves shard.Coordinator.Snapshot — but it stays the single-engine
// reference the coordinator is held to.
func (e *Engine) Snapshot(ctx context.Context) (*psm.Model, error) {
	start := time.Now()
	// Latency is recorded on every outcome, including errors and
	// cancellations: the time a failed snapshot burned under the engine
	// lock is exactly what an operator alerting on join latency needs to
	// see (a cancel storm that only ever shows up as absent samples
	// would hide the regression that causes it).
	defer func() {
		el := time.Since(start)
		e.mJoinNanos.Add(el.Nanoseconds())
		ms := float64(el.Nanoseconds()) / 1e6
		e.hJoin.Observe(ms)
	}()
	if obs.RegistryFrom(ctx) == nil {
		// Bill the join's merge counters (checks, evals, cases) to the
		// engine registry so they surface on /metrics; a caller-provided
		// registry (tests, embedding tools) still wins.
		ctx = obs.WithRegistry(ctx, e.reg)
	}
	ctx, span := obs.Start(ctx, "snapshot")
	defer span.End()
	e.mu.Lock()
	defer e.mu.Unlock()

	if len(e.completed) == 0 {
		return nil, fmt.Errorf("stream: %w", ErrNoTraces)
	}
	idx := mining.SelectIndices(e.candidates, e.stats, e.totalRows, e.cfg.Mining)
	if len(idx) == 0 {
		return nil, fmt.Errorf("stream: no atomic proposition survived filtering (%d candidates over %d instants)",
			len(e.candidates), e.totalRows)
	}
	rebuild, err := e.ensureEpoch(ctx, idx, len(e.completed))
	if err != nil {
		return nil, err
	}
	if rebuild {
		span.SetAttr("rebuild", true)
	}

	// Incremental join fold: each chain not yet folded passes through the
	// join's greedy clustering exactly once (the pass is a left fold over
	// chains in completion order, so folding the delta equals folding
	// everything from scratch — see psm.Joiner).
	for e.built < len(e.chains) {
		e.joiner.Add(ctx, e.chains[e.built])
		e.built++
	}

	// Delta snapshot: clone the fold's kept states (cheap — shared
	// immutable bulk) and run only the order-dependent fixpoint on the
	// clone. Byte-identical to psm.Join over every chain.
	pooled := e.joiner.Pooled()
	snap := e.joiner.Snapshot(ctx)
	if !e.cfg.SkipCalibration {
		// Every state carries exact calibration sums (chainOfSession fills
		// them once per session; the fold and the fixpoint pool them), so
		// this fits the served states without reading a stored series.
		psm.CalibrateCtx(ctx, snap, nil, nil, nil, e.cfg.Calibration)
	}
	// Served models must outlive future interning: freeze a private
	// dictionary copy so EvalRow readers never race Snapshot's writes.
	snap.Dict = mining.FromSnapshot(e.dict.Snapshot())

	e.mSnapshots.Inc()
	if !rebuild {
		e.mDelta.Inc()
	}
	e.gPooled.Set(float64(pooled))
	e.gServed.Set(float64(len(snap.States)))
	span.SetAttr("states", len(snap.States))
	return snap, nil
}

// ensureEpoch brings the epoch cache — dictionary and per-session
// chains — up to date for the kept atom set idx over the first n
// completed sessions, rebuilding everything when idx differs from the
// cached epoch's. The caller holds e.mu and brings whatever kept set
// and session count govern it: Snapshot selects the engine's own (local
// mining statistics, every completed session), a shard coordinator
// imposes the globally selected set and its cut's count through
// ExportChains — never below the count it brought before. The
// incremental joiner fold deliberately stays out of the cache
// maintenance: Snapshot folds (it owns the joiner), ExportChains does
// not (the cross-shard join folds the remapped chains through its own
// Joiner instead).
func (e *Engine) ensureEpoch(ctx context.Context, idx []int, n int) (rebuilt bool, err error) {
	rebuilt = !equalInts(idx, e.keptIdx)
	if rebuilt {
		// Epoch change: the new evidence moved the kept atom set, so every
		// proposition id and chain is void. Rebuild from the stored
		// bitsets — the only path that is not incremental. The joiner
		// reset clears its fold and verdict memo together (an epoch
		// boundary, see psm.Joiner.Reset).
		e.keptIdx = append([]int(nil), idx...)
		kept := make([]mining.Atom, len(idx))
		for i, ci := range idx {
			kept[i] = e.candidates[ci]
		}
		e.dict = mining.NewDictionary(e.schema, kept)
		e.chains = nil
		e.joiner.Reset()
		e.built = 0
		e.mRebuilds.Inc()
	}

	// Sequential phase: intern new sessions' run signatures in trace
	// order (the batch replay order). Only the sessions completed since
	// the cache was last brought up to date are touched, so a delta
	// snapshot's work does not grow with the completed-session count.
	first := len(e.chains)
	fresh := e.completed[first:n]
	propIDs := make([][]int, len(fresh))
	for k, d := range fresh {
		propIDs[k] = propIDsOf(e.dict, e.keptIdx, d)
	}

	// Parallel phase: per-session chain generation, Simplify and
	// calibration sums over the pipeline pool.
	newChains := make([]*psm.Chain, len(fresh))
	err = pipeline.ForEach(ctx, e.cfg.Parallelism(), len(newChains), func(wctx context.Context, k int) error {
		newChains[k] = chainOfSession(wctx, e.dict, propIDs[k], first+k, fresh[k], e.cfg.Merge)
		return nil
	})
	if err != nil {
		// The fan-out is pure; dropping the partial results keeps the
		// cache consistent (they rebuild on the next snapshot).
		return rebuilt, err
	}
	for _, c := range newChains {
		if c == nil {
			// Mirror the batch generator's hard error: a trace too short
			// to expose a temporal pattern fails the whole build there.
			// Close rejects a session that is too short under every kept
			// set; one that is too short only under this kept set (its
			// signatures project onto one proposition) still lands here.
			return rebuilt, fmt.Errorf("stream: trace %d: proposition trace too short to expose a temporal pattern",
				len(e.chains))
		}
		e.chains = append(e.chains, c)
	}
	return rebuilt, nil
}

// Metrics returns the current counters. Everything except
// RecordsIngested is captured in one critical section of the engine
// lock — the epoch the model cache lives under — so a concurrent
// session completion either shows up in full or not at all (see the
// Metrics type).
func (e *Engine) Metrics() Metrics {
	e.mu.Lock()
	defer e.mu.Unlock()
	hs := e.hJoin.Snapshot()
	m := Metrics{
		RecordsIngested: e.mRecords.Value(),
		OpenSessions:    e.openCount,
		TracesCompleted: len(e.completed),
		Snapshots:       int(e.mSnapshots.Value()),
		Rebuilds:        int(e.mRebuilds.Value()),
		DeltaSnapshots:  int(e.mDelta.Value()),
		StatesPooled:    int(e.gPooled.Value()),
		StatesServed:    int(e.gServed.Value()),
		JoinNanos:       e.mJoinNanos.Value(),
		JoinLatency:     make([]int, len(hs.Counts)),
	}
	m.StatesMerged = m.StatesPooled - m.StatesServed
	for i, n := range hs.Counts {
		m.JoinLatency[i] = int(n)
	}
	return m
}

func inputColumns(sigs []trace.Signal, names []string) ([]int, error) {
	var cols []int
	for _, name := range names {
		col := -1
		for i, s := range sigs {
			if s.Name == name {
				col = i
				break
			}
		}
		if col < 0 {
			return nil, fmt.Errorf("stream: input signal %q not in schema", name)
		}
		cols = append(cols, col)
	}
	return cols, nil
}

func sameSchema(a, b []trace.Signal) bool {
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

// exactCopy returns a copy of s whose capacity equals its length.
func exactCopy[T any](s []T) []T {
	out := make([]T, len(s))
	copy(out, s)
	return out
}

func equalWords(a, b []uint64) bool {
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
