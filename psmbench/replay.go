package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"psmkit/internal/check"
	"psmkit/internal/logic"
	"psmkit/internal/obs"
	"psmkit/internal/powersim"
	"psmkit/internal/psm"
	"psmkit/internal/shard"
	"psmkit/internal/stream"
)

// span is one timed call (or, for per-record calls, the calls of one
// session folded together: Start is the first call's start and Dur the
// summed duration of N calls). Spans of one session share Session.
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Session int64  `json:"session,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	N       int    `json:"n"`
}

// recorder keeps the benchmark's spans in memory until the run ends. A
// nil recorder records nothing.
type recorder struct {
	t0    time.Time
	next  *atomic.Int64 // shared by the recorders of one run
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), next: new(atomic.Int64)} }

// sibling returns an empty recorder sharing r's clock and span ids, so
// the spans of both can be written out together.
func (r *recorder) sibling() *recorder { return &recorder{t0: r.t0, next: r.next} }

// add records a span and returns its id (0 when r is nil).
func (r *recorder) add(name string, parent, session int64, start time.Time, dur time.Duration, n int) int64 {
	if r == nil {
		return 0
	}
	id := r.next.Add(1)
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Session: session, Name: name,
		StartNS: start.Sub(r.t0).Nanoseconds(), DurNS: dur.Nanoseconds(), N: n})
	r.mu.Unlock()
	return id
}

// reserve allocates an id for a parent span recorded after its children.
func (r *recorder) reserve() int64 {
	if r == nil {
		return 0
	}
	return r.next.Add(1)
}

// addWithID records a span under a reserved id.
func (r *recorder) addWithID(id int64, name string, parent, session int64, start time.Time, dur time.Duration, n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Session: session, Name: name,
		StartNS: start.Sub(r.t0).Nanoseconds(), DurNS: dur.Nanoseconds(), N: n})
	r.mu.Unlock()
}

// layer sums the spans of one name: total duration, self time (minus
// the children's durations), calls and the per-span durations.
type layer struct {
	total, self time.Duration
	calls       int
	durs        []float64 // ms, one per span
}

func (r *recorder) layers() map[string]*layer {
	childDur := map[int64]int64{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			childDur[s.Parent] += s.DurNS
		}
	}
	out := map[string]*layer{}
	for _, s := range r.spans {
		l := out[s.Name]
		if l == nil {
			l = &layer{}
			out[s.Name] = l
		}
		l.total += time.Duration(s.DurNS)
		self := s.DurNS - childDur[s.ID]
		if self < 0 {
			self = 0
		}
		l.self += time.Duration(self)
		l.calls += s.N
		l.durs = append(l.durs, float64(s.DurNS)/1e6)
	}
	return out
}

// write saves the spans as NDJSON.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// replayShape is how a replay drives the layers: the workload's
// concurrency, read mix and pacing.
type replayShape struct {
	shards    int             // 0 feeds a stream.Engine; > 0 a shard.Coordinator
	workers   int             // concurrent sessions; 0 is clients
	readEvery int             // each worker snapshots after every readEvery-th session
	reader    bool            // a concurrent reader: snapshot, verify, encode, estimate
	due       []time.Duration // open loop: session i starts at due[i] (one worker)
	est       []byte          // the reader's estimate body
}

// replayOut is what a replay measured.
type replayOut struct {
	fed      []op // the sessions in the order they were fed
	model    *psm.Model
	records  int
	busy     time.Duration   // summed per-session reduce + close time
	sessions []time.Duration // per canonical session: its layer calls summed
	counters map[string]float64
	shardRec []int64
	depthMax float64
	// allocBytes and heldBytes (live heap after GC, the engine's state)
	// are measured by traced replays only.
	allocBytes, heldBytes float64
}

// backend hides whether a replay feeds one engine or a coordinator.
type backend struct {
	eng *stream.Engine
	co  *shard.Coordinator
	cfg stream.Config
}

func newBackend(cp *corpus, shards int) *backend {
	cfg := stream.DefaultConfig()
	cfg.Inputs = cp.inputs
	b := &backend{cfg: cfg}
	if shards > 0 {
		b.co = shard.New(shard.Config{Shards: shards, Stream: cfg})
	} else {
		b.eng = stream.NewEngine(cfg)
	}
	return b
}

func (b *backend) snapshot(ctx context.Context) (*psm.Model, error) {
	if b.co != nil {
		return b.co.Snapshot(ctx)
	}
	return b.eng.Snapshot(ctx)
}

func (b *backend) registry() *obs.Registry {
	if b.co != nil {
		return b.co.Registry()
	}
	return b.eng.Registry()
}

func (b *backend) inputCols() []int {
	if b.co != nil {
		return b.co.InputCols()
	}
	return b.eng.InputCols()
}

func (b *backend) close() {
	if b.co != nil {
		b.co.Close()
	}
}

// replay feeds the given sessions, in canonical order, through the
// layers' public functions: stream.Scanner, DecodeRowArena and
// Session.AppendBatch on an engine, or framing and Session.AppendLines
// on a coordinator. Sessions close in canonical order; for a
// coordinator, ids are chosen so each session lands on its shard.
// With rec set, every call is timed into a span.
func replay(ctx context.Context, cp *corpus, ups []op, sh replayShape, rec *recorder) (*replayOut, error) {
	var base runtime.MemStats
	if rec != nil {
		runtime.GC()
		runtime.ReadMemStats(&base)
	}
	b := newBackend(cp, sh.shards)
	defer b.close()
	out := &replayOut{fed: ups, sessions: make([]time.Duration, len(ups)), counters: map[string]float64{}}
	ids, keys, seq := closeOrder(b, ups)

	var (
		mu      sync.Mutex
		turn    = sync.NewCond(&mu)
		closed  = map[int]int{} // per shard: sessions closed so far
		nclosed int
		next    atomic.Int64
		wg      sync.WaitGroup
		errMu   sync.Mutex
		firstEr error
		busy    atomic.Int64
		depth   atomic.Int64
	)
	fail := func(err error) {
		errMu.Lock()
		if firstEr == nil {
			firstEr = err
		}
		errMu.Unlock()
	}
	workers := clients
	switch {
	case sh.due != nil:
		workers = 1
	case sh.workers > 0:
		workers = sh.workers
	}
	start := time.Now()
	readerDone := make(chan struct{})
	var readerWG sync.WaitGroup
	if sh.reader {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for {
				select {
				case <-readerDone:
					return
				default:
				}
				mu.Lock()
				none := nclosed == 0
				mu.Unlock()
				if none { // nothing to read before the first session closes
					time.Sleep(time.Millisecond)
					continue
				}
				if err := readOnce(ctx, b, sh.est, rec, out, &mu); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 1; ; n++ {
				i := int(next.Add(1) - 1)
				if i >= len(ups) {
					return
				}
				if sh.due != nil {
					if d := time.Until(start.Add(sh.due[i])); d > 0 {
						time.Sleep(d)
					}
				}
				sid := int64(i + 1)
				s := cp.sessions[ups[i].session]
				t0 := time.Now()
				var closeFn func() (time.Duration, error)
				var calls time.Duration
				var err error
				if b.co != nil {
					closeFn, calls, err = feedShard(ctx, b.co, ids[i], s, sid, rec, &depth)
				} else {
					closeFn, calls, err = feedEngine(b.eng, s, sid, rec)
				}
				fed := time.Since(t0)
				mu.Lock()
				for closed[keys[i]] != seq[i] {
					turn.Wait()
				}
				var cd time.Duration
				if err == nil {
					cd, err = closeFn()
				}
				if err == nil {
					out.records += s.ft.Len()
				}
				closed[keys[i]]++
				nclosed++
				turn.Broadcast()
				mu.Unlock()
				if err != nil {
					fail(fmt.Errorf("replay session %d: %w", i, err))
					continue
				}
				busy.Add(int64(fed + cd))
				out.sessions[i] = calls + cd
				if rec != nil {
					rec.add(closeName(b), sid, sid, t0.Add(fed), cd, 1)
					rec.add(sessionName(b), 0, sid, t0, fed+cd, 1)
				}
				if sh.readEvery > 0 && n%sh.readEvery == 0 {
					if _, err := snapModel(ctx, b, rec, out, &mu); err != nil {
						fail(err)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(readerDone)
	readerWG.Wait()
	if firstEr != nil {
		return nil, firstEr
	}
	out.busy = time.Duration(busy.Load())
	if rec != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		out.allocBytes = float64(after.TotalAlloc - base.TotalAlloc)
		runtime.GC()
		runtime.ReadMemStats(&after)
		out.heldBytes = float64(after.HeapAlloc) - float64(base.HeapAlloc)
	}
	out.depthMax = float64(depth.Load())
	var m *psm.Model
	var err error
	if rec != nil {
		m, err = snapModel(ctx, b, rec, out, &mu)
	} else {
		m, err = b.snapshot(ctx)
	}
	if err != nil {
		return nil, err
	}
	out.model = m
	reg := b.registry()
	for _, name := range []string{"psm_merge_evals_total", "psm_merge_checks_total", "psmd_snapshots_total", "psmd_snapshots_delta_total", "psmd_rebuilds_total"} {
		out.counters[name] = float64(reg.Counter(name).Value())
	}
	out.counters["psmd_states_pooled"] = reg.Gauge("psmd_states_pooled").Value()
	out.counters["psmd_states_served"] = reg.Gauge("psmd_states_served").Value()
	if b.co != nil {
		out.counters["shed"] = float64(b.co.Shed())
		for _, row := range b.co.ShardMetrics() {
			out.shardRec = append(out.shardRec, row.RecordsIngested)
		}
	}
	return out, nil
}

func sessionName(b *backend) string {
	if b.co != nil {
		return "shard.session"
	}
	return "stream.session"
}

func closeName(b *backend) string {
	if b.co != nil {
		return "shard.close"
	}
	return "stream.close"
}

// closeOrder assigns every session its shard key and its position in
// that shard's close order: sessions of one shard close in the order
// they appear in ups. On a coordinator each session gets an id the
// coordinator routes to its acknowledged shard (or, without one, to
// shard i mod Shards); on an engine there is one key.
func closeOrder(b *backend, ups []op) (ids []string, keys, seq []int) {
	ids = make([]string, len(ups))
	keys = make([]int, len(ups))
	seq = make([]int, len(ups))
	count := map[int]int{}
	cand := 0
	for i, o := range ups {
		if b.co != nil {
			keys[i] = i % b.co.Shards()
			if o.ack.Shard != nil && *o.ack.Shard < b.co.Shards() {
				keys[i] = *o.ack.Shard
			}
			for {
				id := fmt.Sprintf("replay-%d", cand)
				cand++
				if b.co.ShardOf(id) == keys[i] {
					ids[i] = id
					break
				}
			}
		}
		seq[i] = count[keys[i]]
		count[keys[i]]++
	}
	return ids, keys, seq
}

// interleave reorders canonical (shard-major) uploads into the order
// they were acknowledged across shards, keeping each shard's own
// canonical order: the coordinator replay then feeds its shards
// concurrently, as the live run did.
func interleave(ups []op) []op {
	byTime := append([]op(nil), ups...)
	sort.SliceStable(byTime, func(i, j int) bool { return byTime[i].end.Before(byTime[j].end) })
	queues := map[int][]op{}
	shardOf := func(o op) int {
		if o.ack.Shard != nil {
			return *o.ack.Shard
		}
		return 0
	}
	for _, o := range ups {
		queues[shardOf(o)] = append(queues[shardOf(o)], o)
	}
	out := make([]op, len(byTime))
	for i, o := range byTime {
		k := shardOf(o)
		out[i] = queues[k][0]
		queues[k] = queues[k][1:]
	}
	return out
}

// ingestBatch is psmd's default ingest batch.
const ingestBatch = 256

// sampleEvery is how often a traced replay times a per-record call.
const sampleEvery = 8

// feedEngine scans, parses and reduces one session body the way psmd's
// single-engine handler does. It returns the session's close, to be
// called in canonical order, and the summed duration of its calls.
func feedEngine(eng *stream.Engine, s *session, sid int64, rec *recorder) (func() (time.Duration, error), time.Duration, error) {
	sc := stream.NewScanner(bytes.NewReader(s.body), 0)
	h, err := sc.ScanHeader()
	if err != nil {
		return nil, 0, err
	}
	sigs, err := h.Schema()
	if err != nil {
		return nil, 0, err
	}
	sess, err := eng.Open(sigs)
	if err != nil {
		return nil, 0, err
	}
	var (
		arenas                  [2]logic.Arena
		epoch                   int
		raw                     stream.RawRecord
		rows                    = make([][]logic.Vector, 0, ingestBatch)
		powers                  = make([]float64, 0, ingestBatch)
		rowMem                  = make([]logic.Vector, ingestBatch*len(sigs))
		scanD, parseD, reduceD  time.Duration
		scanT0, reduceT0        time.Time
		nRec, nSampled, nReduce int
		tScan, tParse           time.Time
	)
	flush := func() error {
		if len(rows) == 0 {
			return nil
		}
		var t0 time.Time
		if rec != nil {
			t0 = time.Now()
			if nReduce == 0 {
				reduceT0 = t0
			}
		}
		err := sess.AppendBatch(rows, powers)
		if rec != nil {
			reduceD += time.Since(t0)
			nReduce += len(rows)
		}
		rows, powers = rows[:0], powers[:0]
		epoch++
		return err
	}
	for {
		// Every sampleEvery-th record is timed: a clock read costs about
		// as much as scanning a record.
		sampled := rec != nil && nRec%sampleEvery == 0
		if sampled {
			tScan = time.Now()
			if nRec == 0 {
				scanT0 = tScan
			}
		}
		err := sc.ScanRecord(&raw)
		if sampled {
			tParse = time.Now()
			scanD += tParse.Sub(tScan)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			sess.Abort()
			return nil, 0, err
		}
		if raw.P == nil {
			sess.Abort()
			return nil, 0, fmt.Errorf("record without power")
		}
		a := &arenas[epoch&1]
		if len(rows) == 0 {
			a.Reset()
		}
		k := len(rows) * len(sigs)
		row, err := stream.DecodeRowArena(sigs, &raw, a, rowMem[k:k:k+len(sigs)])
		if sampled {
			parseD += time.Since(tParse)
			nSampled++
		}
		nRec++
		if err != nil {
			sess.Abort()
			return nil, 0, err
		}
		rows = append(rows, row)
		powers = append(powers, *raw.P)
		if len(rows) == ingestBatch {
			if err := flush(); err != nil {
				sess.Abort()
				return nil, 0, err
			}
		}
	}
	if err := flush(); err != nil {
		sess.Abort()
		return nil, 0, err
	}
	if rec != nil && nSampled > 0 {
		scale := float64(nRec) / float64(nSampled)
		scanD = time.Duration(float64(scanD) * scale)
		parseD = time.Duration(float64(parseD) * scale)
		rec.add("stream.scan", sid, sid, scanT0, scanD, nRec)
		rec.add("stream.parse", sid, sid, scanT0, parseD, nRec)
		rec.add("stream.reduce", sid, sid, reduceT0, reduceD, nReduce)
	}
	closeFn := func() (time.Duration, error) {
		t0 := time.Now()
		_, err := sess.Close()
		return time.Since(t0), err
	}
	return closeFn, scanD + parseD + reduceD, nil
}

// feedShard frames one session body into batches and hands them to the
// coordinator the way psmd's sharded handler does.
func feedShard(ctx context.Context, co *shard.Coordinator, id string, s *session, sid int64, rec *recorder, depth *atomic.Int64) (func() (time.Duration, error), time.Duration, error) {
	sc := stream.NewScanner(bytes.NewReader(s.body), 0)
	h, err := sc.ScanHeader()
	if err != nil {
		return nil, 0, err
	}
	sigs, err := h.Schema()
	if err != nil {
		return nil, 0, err
	}
	sess, err := co.Open(ctx, id, sigs)
	if err != nil {
		return nil, 0, err
	}
	gauge := co.Registry().Gauge(fmt.Sprintf("psmd_shard%d_queue_depth", sess.Shard()))
	var (
		buf            []byte
		records, first int
		scanD, enqD    time.Duration
		nLine, nSample int
		nEnq           int
		scanT0, enqT0  time.Time
	)
	flush := func() error {
		if records == 0 {
			return nil
		}
		var t0 time.Time
		if rec != nil {
			t0 = time.Now()
			if nEnq == 0 {
				enqT0 = t0
			}
		}
		err := sess.AppendLines(buf, records, first)
		if rec != nil {
			enqD += time.Since(t0)
			nEnq += records
			if d := int64(gauge.Value()); d > depth.Load() {
				depth.Store(d)
			}
		}
		buf, records = nil, 0
		return err
	}
	for {
		sampled := rec != nil && nLine%sampleEvery == 0
		var t0 time.Time
		if sampled {
			t0 = time.Now()
			if nLine == 0 {
				scanT0 = t0
			}
		}
		line, err := sc.Line()
		if sampled {
			scanD += time.Since(t0)
			nSample++
		}
		if err == io.EOF {
			break
		}
		nLine++
		if err != nil {
			sess.Abort()
			return nil, 0, err
		}
		if records == 0 {
			first = sc.Lines()
			buf = make([]byte, 0, ingestBatch*(len(line)+16))
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
		if records++; records == ingestBatch {
			if err := flush(); err != nil {
				sess.Abort()
				return nil, 0, err
			}
		}
	}
	if err := flush(); err != nil {
		sess.Abort()
		return nil, 0, err
	}
	if rec != nil && nSample > 0 {
		scanD = time.Duration(float64(scanD) * float64(nLine+1) / float64(nSample))
		rec.add("shard.scan", sid, sid, scanT0, scanD, nLine)
		rec.add("shard.enqueue", sid, sid, enqT0, enqD, nEnq)
	}
	closeFn := func() (time.Duration, error) {
		t0 := time.Now()
		_, _, err := sess.Close(ctx)
		return time.Since(t0), err
	}
	return closeFn, scanD + enqD, nil
}

// snapModel takes one timed snapshot, verifies it and encodes it: the
// work behind GET /v1/model. The snapshot runs under an obs tracer so
// the collapse and calibrate spans the program emits are read back.
func snapModel(ctx context.Context, b *backend, rec *recorder, out *replayOut, mu *sync.Mutex) (*psm.Model, error) {
	tr := obs.NewTracer(nil)
	sctx := obs.WithTracer(ctx, tr)
	t0 := time.Now()
	m, err := b.snapshot(sctx)
	d := time.Since(t0)
	if err != nil {
		return nil, err
	}
	root := rec.reserve()
	name := "stream.snapshot"
	if b.co != nil {
		name = "shard.snapshot"
	}
	sum := tr.Summary()
	if n := sum.Find("collapse"); n != nil {
		rec.add(name+".collapse", root, 0, t0, n.Total, n.Count)
	}
	if n := sum.Find("calibrate"); n != nil {
		rec.add(name+".calibrate", root, 0, t0, n.Total, n.Count)
	}
	rec.addWithID(root, name, 0, 0, t0, d, 1)

	t1 := time.Now()
	rep := check.VerifyPSM(m, "replay", check.DefaultOptions())
	rec.add("check.verify", 0, 0, t1, time.Since(t1), 1)
	if rep.HasErrors() {
		return nil, fmt.Errorf("replayed model fails check.VerifyPSM (%d errors)", rep.Count(check.Error))
	}
	var buf bytes.Buffer
	t2 := time.Now()
	if err := m.WriteJSON(&buf); err != nil {
		return nil, err
	}
	rec.add("psm.encode", 0, 0, t2, time.Since(t2), 1)
	mu.Lock()
	out.counters["model_bytes"] = float64(buf.Len())
	mu.Unlock()
	return m, nil
}

// readOnce is the refresh reader's iteration: a model read, then an
// estimate over the reader's body with powersim.
func readOnce(ctx context.Context, b *backend, est []byte, rec *recorder, out *replayOut, mu *sync.Mutex) error {
	m, err := snapModel(ctx, b, rec, out, mu)
	if err != nil {
		return err
	}
	if est == nil {
		return nil
	}
	sc := stream.NewScanner(bytes.NewReader(est), 0)
	h, err := sc.ScanHeader()
	if err != nil {
		return err
	}
	sigs, err := h.Schema()
	if err != nil {
		return err
	}
	sim := powersim.New(m, b.inputCols(), powersim.DefaultConfig())
	var (
		raw    stream.RawRecord
		row    []logic.Vector
		arenas [2]logic.Arena
		n      int
		stepD  time.Duration
	)
	t0 := time.Now()
	for {
		if err := sc.ScanRecord(&raw); err == io.EOF {
			break
		} else if err != nil {
			return err
		}
		a := &arenas[n&1]
		a.Reset()
		if row, err = stream.DecodeRowArena(sigs, &raw, a, row[:0]); err != nil {
			return err
		}
		s0 := time.Now()
		sim.Step(row)
		stepD += time.Since(s0)
		n++
	}
	rec.add("powersim.step", 0, 0, t0, stepD, n)
	return nil
}
