package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"psmkit/internal/logic"
	"psmkit/internal/mining"
	"psmkit/internal/obs"
	"psmkit/internal/psm"
	"psmkit/internal/stream"
	"psmkit/internal/trace"
)

// Config tunes the coordinator.
type Config struct {
	// Shards is the engine count; ≤ 0 selects 1 (a sharded deployment
	// of one shard behaves exactly like a single engine, queue and all).
	Shards int
	// Stream configures every shard engine identically. Each shard
	// engine keeps a private registry (per-engine gauges must not
	// collide); the coordinator's own registry carries the fleet-level
	// instruments, the fleet's summed ingest counters among them.
	// Stream.MaxOpenSessions is a PER-SHARD cap; the effective fleet cap
	// is Shards times it.
	Stream stream.Config
	// QueueDepth bounds each shard's task queue in batches (not
	// records); ≤ 0 selects 512. A full queue is the backpressure
	// signal: appends block up to EnqueueTimeout, then shed.
	QueueDepth int
	// EnqueueTimeout is how long an append may block on a saturated
	// shard before giving up with a SaturatedError (the 429 +
	// Retry-After path); ≤ 0 selects 2 s.
	EnqueueTimeout time.Duration
}

func (c Config) shards() int {
	if c.Shards > 0 {
		return c.Shards
	}
	return 1
}

func (c Config) queueDepth() int {
	if c.QueueDepth > 0 {
		return c.QueueDepth
	}
	return 512
}

func (c Config) enqueueTimeout() time.Duration {
	if c.EnqueueTimeout > 0 {
		return c.EnqueueTimeout
	}
	return 2 * time.Second
}

// SaturatedError reports a shard whose queue stayed full past the
// enqueue timeout: the load-shed signal the serving layer translates
// into 429 + Retry-After. RetryAfter is the coordinator's suggestion
// for how long the client should back off.
type SaturatedError struct {
	Shard      int
	RetryAfter time.Duration
}

func (e *SaturatedError) Error() string {
	return fmt.Sprintf("shard: shard %d saturated (queue full past %s)", e.Shard, e.RetryAfter)
}

// errClosed reports an operation against a coordinator whose workers
// have been stopped.
var errClosed = errors.New("shard: coordinator closed")

// Coordinator runs N shard engines as one logical model. Sessions are
// routed by consistent hash on their id; each shard's engine is touched
// only by that shard's worker goroutine, so per-shard reduction is
// strictly sequential (one cache-hot reducer per shard) and the fleet
// scales ingest across cores. Snapshot joins the shards back into one
// model that is byte-identical to a single engine fed the same sessions
// in canonical order — shard-major: all of shard 0's sessions in their
// completion order, then shard 1's, and so on — folding only the new
// chains whenever they extend that order (see Snapshot).
type Coordinator struct {
	cfg    Config
	ring   *ring
	shards []*shard
	reg    *obs.Registry

	// Fleet-level instruments. Snapshot accounting (latency, rebuilds,
	// states pooled/served) describes the global cross-shard join — the
	// per-shard joiners never run under a coordinator.
	mSnapshots *obs.Counter
	mRebuilds  *obs.Counter
	mDelta     *obs.Counter
	mCached    *obs.Counter
	mJoinNanos *obs.Counter
	mShed      *obs.Counter
	gPooled    *obs.Gauge
	gServed    *obs.Gauge
	hJoin      *obs.Histogram
	hJoinWin   *obs.WindowedHistogram

	// Schema state: the coordinator pins one global schema (mining
	// requires a uniform training schema) before any session reaches a
	// shard, exactly like a single engine's first Open fixes its schema.
	mu         sync.Mutex
	schema     []trace.Signal
	inputCols  []int
	candidates []mining.Atom
	autoID     int64

	// Snapshot state, serialized by snapMu: the cross-snapshot verdict
	// memo, the last global kept atom set (the global epoch), the
	// persistent fold — one joiner over the global dictionary, plus what
	// each shard has contributed to it so far — and the last model built
	// with the per-shard session counts it covers (see Snapshot).
	snapMu     sync.Mutex
	memo       *psm.EvalMemo
	lastKept   []int
	joiner     *psm.Joiner
	gdict      *mining.Dictionary
	folded     []foldedShard
	last       *psm.Model
	lastCounts []int

	stopc     chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// shard is one engine plus its bounded task queue and the single worker
// goroutine that owns all engine access for the shard.
type shard struct {
	idx     int
	eng     *stream.Engine
	q       chan task
	stopc   chan struct{} // the coordinator's stop channel
	gDepth  *obs.Gauge
	mShed   *obs.Counter // this shard's shed batches
	mShedAg *obs.Counter // the coordinator's fleet-wide shed counter
}

// New builds and starts a coordinator: cfg.Shards engines, each behind
// a bounded queue drained by a dedicated worker. Close stops the
// workers.
func New(cfg Config) *Coordinator {
	reg := obs.NewRegistry()
	n := cfg.shards()
	c := &Coordinator{
		cfg:        cfg,
		ring:       newRing(n),
		reg:        reg,
		memo:       psm.NewEvalMemo(cfg.Stream.Merge),
		mSnapshots: reg.Counter("psmd_snapshots_total"),
		mRebuilds:  reg.Counter("psmd_rebuilds_total"),
		mDelta:     reg.Counter("psmd_snapshots_delta_total"),
		mCached:    reg.Counter("psmd_snapshots_cached_total"),
		mJoinNanos: reg.Counter("psmd_join_nanos_total"),
		mShed:      reg.Counter("psmd_shed_total"),
		gPooled:    reg.Gauge("psmd_states_pooled"),
		gServed:    reg.Gauge("psmd_states_served"),
		hJoin:      reg.Histogram("psmd_join_latency_ms", stream.LatencyBuckets),
		hJoinWin:   reg.Window("psmd_join_latency_ms_window", stream.LatencyBuckets, obs.DefaultWindowInterval, obs.DefaultWindowSlots),
		stopc:      make(chan struct{}),
	}
	for i := 0; i < n; i++ {
		sh := &shard{
			idx:     i,
			eng:     stream.NewEngine(cfg.Stream),
			q:       make(chan task, cfg.queueDepth()),
			stopc:   c.stopc,
			gDepth:  reg.Gauge(fmt.Sprintf("psmd_shard%d_queue_depth", i)),
			mShed:   reg.Counter(fmt.Sprintf("psmd_shard%d_shed_total", i)),
			mShedAg: c.mShed,
		}
		c.shards = append(c.shards, sh)
		c.wg.Add(1)
		go func() { defer c.wg.Done(); sh.run() }()
	}
	// The ingest counters live in the shard engines' private registries;
	// the fleet registry reads their sums at export time.
	reg.CounterFunc("psmd_records_ingested_total", func() int64 { return c.ingest().RecordsIngested })
	reg.CounterFunc("psmd_traces_completed_total", func() int64 { return int64(c.ingest().TracesCompleted) })
	reg.GaugeFunc("psmd_sessions_open", func() float64 { return float64(c.ingest().OpenSessions) })
	return c
}

// Close stops the shard workers after draining whatever is already
// queued. Producers must be quiesced first (the serving layer shuts its
// HTTP server down before closing the coordinator); operations racing a
// Close fail with a closed-coordinator error rather than hanging.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		close(c.stopc)
		c.wg.Wait()
	})
}

// Shards returns the shard count.
func (c *Coordinator) Shards() int { return len(c.shards) }

// Registry exposes the coordinator's metrics registry.
func (c *Coordinator) Registry() *obs.Registry { return c.reg }

// JoinLatencyWindow returns the cross-shard join latency distribution
// over the most recent sliding window (the /v1/status feed).
func (c *Coordinator) JoinLatencyWindow() obs.HistogramSnapshot { return c.hJoinWin.Snapshot() }

// InputCols returns the primary-input column indices.
func (c *Coordinator) InputCols() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.inputCols...)
}

// ShardOf returns the shard a session id routes to (tests, ops).
func (c *Coordinator) ShardOf(id string) int { return c.ring.shardOf(id) }

// Session is one open trace being streamed through the coordinator.
// Like stream.Session it is single-producer. Appends are asynchronous:
// they enqueue onto the session's shard and are applied by the shard
// worker, so a validation failure surfaces on a later call or at Close.
type Session struct {
	c  *Coordinator
	sh *shard
	ws *wsession

	parse, reduce time.Duration // worker time, set by Close
}

// Open routes a session to its shard by consistent hash on id (an
// empty id is assigned one) and waits for the shard engine to accept
// it, so engine-side rejections (schema mismatch, open-session cap)
// surface synchronously. The first Open pins the coordinator's global
// schema; later sessions must match it on arrival, before they reach
// any shard.
func (c *Coordinator) Open(ctx context.Context, id string, sigs []trace.Signal) (*Session, error) {
	c.mu.Lock()
	if c.schema == nil {
		if len(sigs) == 0 {
			c.mu.Unlock()
			return nil, fmt.Errorf("stream: empty signal schema")
		}
		cols, err := stream.InputColumns(sigs, c.cfg.Stream.Inputs)
		if err != nil {
			c.mu.Unlock()
			return nil, err
		}
		c.schema = append([]trace.Signal(nil), sigs...)
		c.inputCols = cols
		c.candidates = mining.CandidateAtoms(c.schema)
	} else if !sameSchema(c.schema, sigs) {
		c.mu.Unlock()
		return nil, fmt.Errorf("stream: session schema differs from the engine's (%d signals)", len(c.schema))
	}
	if id == "" {
		c.autoID++
		id = fmt.Sprintf("session-%d", c.autoID)
	}
	schema := c.schema
	c.mu.Unlock()

	sh := c.shards[c.ring.shardOf(id)]
	ws := &wsession{sigs: schema}
	ack := make(chan error, 1)
	if err := sh.enqueue(task{kind: taskOpen, ws: ws, sigs: schema, ack: ack}, c.cfg.enqueueTimeout()); err != nil {
		return nil, err
	}
	select {
	case err := <-ack:
		if err != nil {
			return nil, err
		}
	case <-ctx.Done():
		// The queued open will still run; queue an abort behind it so
		// the engine slot it takes is released again.
		//psmlint:ignore err-drop best-effort cleanup on a cancelled open; the abort is a no-op if the coordinator is closing
		sh.enqueueBlocking(task{kind: taskAbort, ws: ws})
		return nil, ctx.Err()
	case <-c.stopc:
		return nil, errClosed
	}
	return &Session{c: c, sh: sh, ws: ws}, nil
}

// Shard returns the shard index the session routed to.
func (s *Session) Shard() int { return s.sh.idx }

// AppendLines hands framed NDJSON record lines to the shard worker,
// which parses them there (stream.LineParser + DecodeRowArena) — psmd's
// ingest path: the HTTP handler only frames and copies lines, the
// per-shard worker pays the parse and the reduction. buf must hold
// exactly records newline-terminated record lines and ownership
// transfers; firstLine is the 1-based position of buf's first line in
// the upload (error-text accounting, the header is line 1). Blocks at
// most the enqueue timeout when the shard is saturated, then sheds with
// SaturatedError.
func (s *Session) AppendLines(buf []byte, records, firstLine int) error {
	if err := s.ws.failure(); err != nil {
		return err
	}
	return s.sh.enqueue(task{kind: taskLines, ws: s.ws, lines: buf, nlines: records, firstLine: firstLine}, s.c.cfg.enqueueTimeout())
}

// Close completes the session on its shard and waits for the result:
// the shard-local trace index and the record count that landed. Any
// deferred append failure surfaces here at the latest.
func (s *Session) Close(ctx context.Context) (traceIdx, rows int, err error) {
	res := make(chan closeAck, 1)
	if err := s.sh.enqueueBlocking(task{kind: taskClose, ws: s.ws, res: res}); err != nil {
		return 0, 0, err
	}
	select {
	case a := <-res:
		s.parse, s.reduce = a.parse, a.reduce
		return a.trace, a.rows, a.err
	case <-ctx.Done():
		return 0, 0, ctx.Err()
	case <-s.c.stopc:
		return 0, 0, errClosed
	}
}

// Timing returns the worker time the session's records cost: parsing
// the framed lines and reducing them into the shard engine. It is zero
// until Close has returned.
func (s *Session) Timing() (parse, reduce time.Duration) { return s.parse, s.reduce }

// Abort discards the session (client disconnect mid-upload): nothing it
// streamed reaches the model. The abort is queued behind any in-flight
// appends and never sheds.
func (s *Session) Abort() {
	//psmlint:ignore err-drop an abort racing coordinator shutdown has nothing left to clean up
	s.sh.enqueueBlocking(task{kind: taskAbort, ws: s.ws})
}

// Flush blocks until every task enqueued on every shard before the
// call has been applied to the shard engines — the graceful-drain
// barrier before a final snapshot.
func (c *Coordinator) Flush(ctx context.Context) error {
	acks := make([]chan error, len(c.shards))
	for i, sh := range c.shards {
		acks[i] = make(chan error, 1)
		if err := sh.enqueueBlocking(task{kind: taskFlush, ack: acks[i]}); err != nil {
			return err
		}
	}
	for _, ack := range acks {
		select {
		case <-ack:
		case <-ctx.Done():
			return ctx.Err()
		case <-c.stopc:
			return errClosed
		}
	}
	return nil
}

// taskKind discriminates the shard queue's messages.
type taskKind int

const (
	taskOpen taskKind = iota
	taskLines
	taskClose
	taskAbort
	taskFlush
)

// closeAck is the worker's reply to a taskClose, with the session's
// summed worker time.
type closeAck struct {
	trace         int
	rows          int
	parse, reduce time.Duration
	err           error
}

// task is one shard-queue message. Appends carry their payload by
// ownership transfer; control messages carry reply channels.
type task struct {
	kind      taskKind
	ws        *wsession
	sigs      []trace.Signal // taskOpen
	lines     []byte         // taskLines: newline-terminated record lines
	nlines    int            // taskLines: record count in lines
	firstLine int            // taskLines: 1-based upload line of lines[0]
	ack       chan error     // taskOpen (buffered), taskFlush (closed)
	res       chan closeAck  // taskClose (buffered)
}

// wsession is the worker-side state of one session. The worker owns
// everything except err, which the producer reads through failure().
type wsession struct {
	sigs   []trace.Signal
	sess   *stream.Session
	arenas [2]logic.Arena // double-buffered: the engine keeps the last row one extra batch
	epoch  int
	rowMem []logic.Vector
	rows   [][]logic.Vector
	pows   []float64
	raw    stream.RawRecord
	parser stream.LineParser
	dead   bool // worker-only: aborted/closed, later tasks are dropped
	// parse and reduce sum the worker time of the session's batches.
	parse, reduce time.Duration

	mu  sync.Mutex
	err error
}

func (ws *wsession) fail(err error) {
	ws.mu.Lock()
	if ws.err == nil {
		ws.err = err
	}
	ws.mu.Unlock()
}

func (ws *wsession) failure() error {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.err
}

// kill records the session's first failure and discards it from the
// engine; every later task of the session is dropped.
func (ws *wsession) kill(err error) {
	ws.fail(err)
	if ws.sess != nil {
		ws.sess.Abort()
	}
	ws.dead = true
}

// enqueue offers a task with backpressure: an immediate slot wins, a
// full queue blocks up to timeout, then the task is shed with a
// SaturatedError naming the shard.
func (sh *shard) enqueue(t task, timeout time.Duration) error {
	select {
	case sh.q <- t:
		sh.gDepth.Set(float64(len(sh.q)))
		return nil
	case <-sh.stopc:
		return errClosed
	default:
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case sh.q <- t:
		sh.gDepth.Set(float64(len(sh.q)))
		return nil
	case <-timer.C:
		sh.mShed.Inc()
		sh.mShedAg.Inc()
		return &SaturatedError{Shard: sh.idx, RetryAfter: timeout}
	case <-sh.stopc:
		return errClosed
	}
}

// enqueueBlocking queues a control message that must not be shed
// (close, abort, flush): it waits for a slot however long that
// takes — the worker is always draining — and fails only when the
// coordinator is shutting down.
func (sh *shard) enqueueBlocking(t task) error {
	select {
	case sh.q <- t:
		sh.gDepth.Set(float64(len(sh.q)))
		return nil
	case <-sh.stopc:
		return errClosed
	}
}

// run is the shard worker: the only goroutine that touches the shard's
// engine. On stop it drains what is already queued, then exits.
func (sh *shard) run() {
	for {
		select {
		case t := <-sh.q:
			sh.gDepth.Set(float64(len(sh.q)))
			sh.handle(t)
		case <-sh.stopc:
			for {
				select {
				case t := <-sh.q:
					sh.handle(t)
				default:
					sh.gDepth.Set(0)
					return
				}
			}
		}
	}
}

// handle applies one task to the shard engine.
func (sh *shard) handle(t task) {
	switch t.kind {
	case taskOpen:
		ss, err := sh.eng.Open(t.sigs)
		if err != nil {
			t.ws.kill(err)
		} else {
			t.ws.sess = ss
		}
		t.ack <- err
	case taskLines:
		sh.handleLines(t)
	case taskClose:
		ws := t.ws
		if ws.dead {
			err := ws.failure()
			if err == nil {
				err = fmt.Errorf("stream: session closed twice")
			}
			t.res <- closeAck{parse: ws.parse, reduce: ws.reduce, err: err}
			return
		}
		rows := ws.sess.Rows()
		idx, err := ws.sess.Close()
		ws.dead = true
		if err != nil {
			ws.fail(err)
		}
		t.res <- closeAck{trace: idx, rows: rows, parse: ws.parse, reduce: ws.reduce, err: err}
	case taskAbort:
		if !t.ws.dead && t.ws.sess != nil {
			t.ws.sess.Abort()
		}
		t.ws.dead = true
	case taskFlush:
		close(t.ack)
	}
}

// handleLines parses one framed line batch into the session's arenas
// and reduces it in a single AppendBatch, on the shard worker, so N
// shards parse and reduce on N cores while the HTTP handlers only frame
// bytes. The parse and reduce time add up on the session.
func (sh *shard) handleLines(t task) {
	ws := t.ws
	if ws.dead {
		return
	}
	t0 := time.Now()
	// Two alternating arenas: the engine references the previous batch's
	// last row until this batch lands, so this batch must decode into
	// the arena the batch before last used, never the immediately
	// previous one.
	a := &ws.arenas[ws.epoch&1]
	a.Reset()
	ws.epoch++
	if need := t.nlines * len(ws.sigs); cap(ws.rowMem) < need {
		ws.rowMem = make([]logic.Vector, need)
	}
	ws.rows = ws.rows[:0]
	ws.pows = ws.pows[:0]
	buf, lineno := t.lines, t.firstLine
	for len(buf) > 0 {
		nl := bytes.IndexByte(buf, '\n')
		if nl < 0 {
			nl = len(buf) // a final unterminated line is still a line
		}
		line := buf[:nl]
		if nl < len(buf) {
			buf = buf[nl+1:]
		} else {
			buf = nil
		}
		if len(line) == 0 {
			continue
		}
		if err := ws.parser.Parse(line, lineno, &ws.raw); err != nil {
			ws.kill(err)
			return
		}
		if ws.raw.P == nil {
			ws.kill(fmt.Errorf("stream: record %d: training records need a power value \"p\"",
				ws.sess.Rows()+len(ws.rows)+1))
			return
		}
		k := len(ws.rows) * len(ws.sigs)
		row, err := stream.DecodeRowArena(ws.sigs, &ws.raw, a, ws.rowMem[k:k:k+len(ws.sigs)])
		if err != nil {
			ws.kill(err)
			return
		}
		ws.rows = append(ws.rows, row)
		ws.pows = append(ws.pows, *ws.raw.P)
		lineno++
	}
	if len(ws.rows) == 0 {
		return
	}
	t1 := time.Now()
	err := ws.sess.AppendBatch(ws.rows, ws.pows)
	ws.parse, ws.reduce = ws.parse+t1.Sub(t0), ws.reduce+time.Since(t1)
	if err != nil {
		ws.kill(err)
	}
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
