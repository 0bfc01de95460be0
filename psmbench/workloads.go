package main

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"psmkit/internal/check"
	"psmkit/internal/pipeline"
	"psmkit/internal/psm"
	"psmkit/internal/trace"
)

// clients is the most client goroutines and connections any workload
// uses: the load comes from one process on a 2-core machine.
const clients = 2

// workloadDef describes one workload. The fields after Why are its
// shape; Maps says what the generic end-to-end names mean on it.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	Loop string `json:"loop"`
	Maps string `json:"maps"`

	ip        string
	pool      int     // distinct sessions generated in set-up
	records   int     // records per session
	uploaders int     // closed-loop uploaders
	shards    int     // > 1 serves through a shard.Coordinator
	readEvery int     // each uploader GETs /v1/model after every readEvery-th upload
	rate      float64 // > 0: one open-loop uploader at this many uploads/s
	reader    bool    // a closed-loop reader alternating GET /v1/model and POST /v1/estimate
	estimate  int     // records in the reader's estimate body
	valCycles int     // validation stimulus length
}

// refreshRate is the refresh workload's open-loop upload rate. Pooled
// state grows with every upload and each snapshot holds the engine lock
// longer, so the rate bounds the state a 30 s window ends with: at 100
// uploads/s over 40 s on a 2-core machine the upload p90 grew fourfold
// and spread 0.8 of its median from run to run.
const refreshRate = 50.0

var workloads = []*workloadDef{
	{
		Name: "ingest", ip: "AES", pool: 16, records: 2000, uploaders: 1, valCycles: 200000,
		Why:  "long AES sessions (3x128-bit ports) to one engine; the per-record scan/parse/reduce path does nearly all the work",
		Loop: "closed loop, 1 uploader",
		Maps: "throughput = acknowledged records/s; latency = POST /v1/traces send to ack",
	},
	{
		Name: "refresh", ip: "RAM", pool: 64, records: 300, rate: refreshRate, reader: true, estimate: 400, valCycles: 1500000,
		Why:  "short RAM sessions at a fixed rate beside a reader of /v1/model and /v1/estimate; pooled state grows all run, the snapshot path dominates",
		Loop: fmt.Sprintf("open loop, 1 uploader at %.0f uploads/s; closed loop, 1 reader", refreshRate),
		Maps: "throughput = instants estimated by POST /v1/estimate per second; latency = POST /v1/traces from its due time to ack",
	},
	{
		Name: "sharded", ip: "AES", pool: 16, records: 500, uploaders: 2, shards: 2, readEvery: 10, valCycles: 200000,
		Why:  "the ingest traffic on Shards=2 with a model read every 10th upload: coordinator hop and cross-shard snapshot",
		Loop: "closed loop, 2 uploaders",
		Maps: "throughput = acknowledged records/s; latency = POST /v1/traces send to ack",
	},
	{
		Name: "batch", valCycles: 2048,
		Why:  "the paper flow over all four Table I IPs: build, then stall-injected co-simulation and PX; HTTP and stream bypassed",
		Loop: "closed loop, 1 worker",
		Maps: "throughput = training records built into models per second; latency = pipeline.BuildModel over one round of the four IPs",
	},
}

func workloadByName(name string) (*workloadDef, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// serverRun is the state and outcome of one psmd workload run.
type serverRun struct {
	w      *workloadDef
	cp     *corpus
	est    []byte // the reader's estimate body
	p      *psmd
	ops    []op
	window time.Duration
	// warmModel is the model served right after the warm-up uploads and
	// warmRef pipeline.BuildModel over the warm-up sessions.
	warmModel []byte
	warmRef   *psm.Model
	// readRates is, per reader iteration (a model read, then an
	// estimate), the instants estimated per second of the iteration.
	readRates []float64
	// paper is the reader's co-simulation and PX of warmRef: one turn
	// after every iteration, so their rates sample the whole window.
	paper    *paperRun
	paperRes paperResult
	paperErr error
	heapMB   float64
	gcFrac   float64
}

// warmups is how many sessions set-up uploads before the window. The
// model served after them is checked against pipeline.BuildModel.
const warmups = 2

// serverSetup generates the trace pool, boots the server and warms it up
// with warmups uploads and one model read. The warm-up uploads are part
// of the final model too.
func serverSetup(ctx context.Context, w *workloadDef, o *options) (*serverRun, error) {
	cp, err := buildCorpus(w.ip, o.scaled(w.pool, 2), o.scaled(w.records, 100), o.seed)
	if err != nil {
		return nil, err
	}
	r := &serverRun{w: w, cp: cp}
	if w.reader {
		ecp, err := buildCorpus(w.ip, 1, o.scaled(w.estimate, 100), o.seed+7_777_777)
		if err != nil {
			return nil, err
		}
		r.est = ecp.sessions[0].body
	}
	r.p = bootServer(cp, w.shards, o.wrap)
	for i := 0; i < warmups; i++ {
		var up op
		up.session = i
		r.p.upload(ctx, &up, cp.sessions[i].body)
		if !up.ok {
			r.p.Close()
			return nil, fmt.Errorf("warm-up upload failed")
		}
		r.ops = append(r.ops, up)
	}
	var rd op
	if r.warmModel = r.p.model(ctx, &rd); !rd.ok {
		r.p.Close()
		return nil, fmt.Errorf("warm-up model read failed")
	}
	fts, pws := referenceTraces(cp, canonical(r.ops))
	if r.warmRef, err = pipeline.BuildModel(ctx, fts, pws, cp.inputCols, pipeline.DefaultConfig()); err != nil {
		r.p.Close()
		return nil, fmt.Errorf("warm-up reference build: %w", err)
	}
	if w.reader {
		if r.paper, err = newPaperRun(cp.ip, r.warmRef, cp.inputCols, o.seed, nil); err != nil {
			r.p.Close()
			return nil, err
		}
	}
	return r, nil
}

// run drives the timed window.
func (r *serverRun) run(ctx context.Context, seconds float64) {
	w := r.w
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	gc0, cpu0 := cpuStats()

	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		next atomic.Int64
	)
	next.Store(warmups) // the first sessions were the warm-up uploads
	collect := func(ops []op) {
		mu.Lock()
		r.ops = append(r.ops, ops...)
		mu.Unlock()
	}
	pick := func() int { return int(next.Add(1)-1) % len(r.cp.sessions) }

	if w.rate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			collect(r.openLoop(ctx, start, deadline, pick))
		}()
	} else {
		for u := 0; u < w.uploaders; u++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var ops []op
				free := time.Now()
				for n := 1; time.Now().Before(deadline); n++ {
					var o op
					o.session = pick()
					r.p.upload(ctx, &o, r.cp.sessions[o.session].body)
					// A closed-loop request is due when the previous one
					// completed; the client's own delay is its lateness.
					o.lateMs = float64(o.start.Sub(free).Nanoseconds()) / 1e6
					free = o.end
					ops = append(ops, o)
					if w.readEvery > 0 && n%w.readEvery == 0 {
						var rd op
						r.p.model(ctx, &rd)
						free = rd.end
						ops = append(ops, rd)
					}
				}
				collect(ops)
			}()
		}
	}
	if w.reader {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ops []op
			for time.Now().Before(deadline) {
				var rd, es op
				r.p.model(ctx, &rd)
				r.p.estimate(ctx, &es, r.est)
				ops = append(ops, rd, es)
				r.readRates = append(r.readRates, float64(es.records)/es.end.Sub(rd.start).Seconds())
				if r.paperErr = r.paper.turn(rateChunk); r.paperErr != nil {
					break
				}
			}
			collect(ops)
		}()
	}
	wg.Wait()
	r.window = time.Since(start)
	if r.paper != nil {
		// The reader's rigs keep every estimate: the benchmark's memory,
		// not the server's, so they go before the heap is read.
		r.paperRes, r.paper = r.paper.res, nil
	}
	r.heapMB = liveHeapMB()
	gc1, cpu1 := cpuStats()
	if cpu1 > cpu0 {
		r.gcFrac = (gc1 - gc0) / (cpu1 - cpu0)
	}
}

// openLoop posts one upload per period from its due time. The single
// uploader goroutine cannot send while an upload is in flight, so an
// upload that overruns its slot delays the next one; that wait counts in
// the next upload's latency (timed from its due time), and only a late
// wake-up from an idle generator counts as generator lateness.
func (r *serverRun) openLoop(ctx context.Context, start, deadline time.Time, pick func() int) []op {
	period := time.Duration(float64(time.Second) / r.w.rate)
	var ops []op
	free := start
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if !due.Before(deadline) {
			return ops
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		var o op
		o.due = due
		o.session = pick()
		sent := time.Now()
		ready := due
		if free.After(ready) {
			ready = free
		}
		o.lateMs = float64(sent.Sub(ready).Nanoseconds()) / 1e6
		r.p.upload(ctx, &o, r.cp.sessions[o.session].body)
		free = o.end
		ops = append(ops, o)
	}
}

// canonical returns the acknowledged uploads in the order the served
// model is defined over: completion order for one engine, shard-major
// (then shard-local completion order) under sharding.
func canonical(ops []op) []op {
	var ups []op
	for _, o := range ops {
		if o.kind == "upload" && o.ok {
			ups = append(ups, o)
		}
	}
	sort.SliceStable(ups, func(i, j int) bool {
		si, sj := 0, 0
		if ups[i].ack.Shard != nil {
			si = *ups[i].ack.Shard
		}
		if ups[j].ack.Shard != nil {
			sj = *ups[j].ack.Shard
		}
		if si != sj {
			return si < sj
		}
		return ups[i].ack.Trace < ups[j].ack.Trace
	})
	return ups
}

// referenceTraces lists the acknowledged sessions' traces in canonical
// order.
func referenceTraces(cp *corpus, ups []op) ([]*trace.Functional, []*trace.Power) {
	fts := make([]*trace.Functional, len(ups))
	pws := make([]*trace.Power, len(ups))
	for i, o := range ups {
		s := cp.sessions[o.session]
		fts[i], pws[i] = s.ft, s.pw
	}
	return fts, pws
}

// verifyServed is the correctness check of a served model: its bytes
// must equal the reference model's JSON, and the reference must pass
// check.VerifyPSM (the gate GET /v1/model applies).
func verifyServed(served []byte, ref *psm.Model, what string) error {
	var want bytes.Buffer
	if err := ref.WriteJSON(&want); err != nil {
		return err
	}
	if !bytes.Equal(served, want.Bytes()) {
		return fmt.Errorf("served model differs from %s (%d vs %d bytes)", what, len(served), want.Len())
	}
	if rep := check.VerifyPSM(ref, what, check.DefaultOptions()); rep.HasErrors() {
		return fmt.Errorf("%s fails check.VerifyPSM (%d errors)", what, rep.Count(check.Error))
	}
	return nil
}

// checkUploads verifies every acknowledgement against its session.
func checkUploads(cp *corpus, ups []op) error {
	for _, o := range ups {
		if want := cp.sessions[o.session].ft.Len(); o.ack.Records != want {
			return fmt.Errorf("upload of session %d acknowledged %d records, sent %d", o.session, o.ack.Records, want)
		}
	}
	return nil
}
