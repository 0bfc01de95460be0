package psmkit

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"psmkit/internal/logic"
	"psmkit/internal/psm"
	"psmkit/internal/shard"
	"psmkit/internal/stream"
	"psmkit/internal/trace"
)

// shardGateMinProcs is the parallel headroom the throughput half of the
// shard gate needs: four reducer goroutines plus the producers. Below
// it the gate still pins model equality and records the measured
// scaling, but cannot honestly enforce a wall-clock speedup (see
// EXPERIMENTS.md, "Shard scaling").
const shardGateMinProcs = 6

// ingestSchema is the benchmark stream's signal set: widths spanning a
// control bit through a multi-word bus, with the first two signals as
// the engine's primary inputs.
func ingestSchema() []trace.Signal {
	return []trace.Signal{
		{Name: "en", Width: 1},
		{Name: "mode", Width: 8},
		{Name: "addr", Width: 16},
		{Name: "ctr", Width: 32},
		{Name: "data", Width: 64},
		{Name: "bus", Width: 128},
	}
}

// ingestPayload synthesizes a deterministic n-record NDJSON stream over
// ingestSchema via the wire Encoder, so both ingest arms read the exact
// bytes psmd would receive.
func ingestPayload(n int, seed uint64) []byte {
	sigs := ingestSchema()
	var buf bytes.Buffer
	enc := stream.NewEncoder(&buf)
	if err := enc.WriteHeader(stream.HeaderFor(sigs, []int{0, 1})); err != nil {
		panic(err)
	}
	rng := seed | 1
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	row := make([]logic.Vector, len(sigs))
	for i := 0; i < n; i++ {
		for k, sig := range sigs {
			switch {
			case sig.Width <= 64:
				row[k] = logic.FromUint64(sig.Width, next())
			default:
				v, err := logic.ParseHex(sig.Width, fmt.Sprintf("%016x%016x", next(), next()))
				if err != nil {
					panic(err)
				}
				row[k] = v
			}
		}
		if err := enc.WriteRow(row, float64(next()%4096)/64); err != nil {
			panic(err)
		}
	}
	if err := enc.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func ingestConfig() stream.Config {
	cfg := stream.DefaultConfig()
	cfg.Inputs = []string{"en", "mode"}
	return cfg
}

func recPerSec(n int, d time.Duration) float64 {
	return float64(n) / d.Seconds()
}

// shardBatches precomputes the batch frame table over an NDJSON payload
// produced by ingestPayload: byte range, record count and the physical
// number of the first line (the header is line 1, records start at 2).
type shardBatch struct {
	start, end, records, firstLine int
}

func shardFrames(body []byte, batch int) []shardBatch {
	var frames []shardBatch
	cur := shardBatch{firstLine: 2}
	off := 0
	for off < len(body) {
		nl := bytes.IndexByte(body[off:], '\n')
		if nl < 0 {
			break
		}
		off += nl + 1
		cur.records++
		if cur.records == batch {
			cur.end = off
			frames = append(frames, cur)
			cur = shardBatch{start: off, firstLine: 2 + len(frames)*batch}
		}
	}
	if cur.records > 0 {
		cur.end = off
		frames = append(frames, cur)
	}
	return frames
}

// balancedIDs picks one session id per slot, probing candidates against
// the coordinator's own ring so the load splits evenly across shards —
// the harness controls ids, so the benchmark measures reducer scaling,
// not hash luck.
func balancedIDs(co *shard.Coordinator, sessions int) []string {
	perShard := make([]int, co.Shards())
	quota := (sessions + co.Shards() - 1) / co.Shards()
	ids := make([]string, 0, sessions)
	for cand := 0; len(ids) < sessions; cand++ {
		id := fmt.Sprintf("sess-%04d", cand)
		if sh := co.ShardOf(id); perShard[sh] < quota {
			perShard[sh]++
			ids = append(ids, id)
		}
	}
	return ids
}

// shardIngest streams `sessions` identical-content sessions through a
// fresh coordinator concurrently and returns the ingest wall clock
// (Open through the last Close) and the final model. Identical content
// with distinct ids makes the mined model independent of shard count
// and completion interleaving, so every arm must produce the same
// model as the single-engine reference.
func shardIngest(t testing.TB, shards, sessions int, payload []byte, batch int) (time.Duration, *psm.Model) {
	t.Helper()
	sc := stream.NewScanner(bytes.NewReader(payload), 0)
	h, err := sc.ScanHeader()
	if err != nil {
		t.Fatal(err)
	}
	sigs, err := h.Schema()
	if err != nil {
		t.Fatal(err)
	}
	headerEnd := bytes.IndexByte(payload, '\n') + 1
	body := payload[headerEnd:]
	frames := shardFrames(body, batch)

	co := shard.New(shard.Config{Shards: shards, Stream: ingestConfig()})
	defer co.Close()
	ids := balancedIDs(co, sessions)

	ctx := context.Background()
	var wg sync.WaitGroup
	errc := make(chan error, sessions)
	start := time.Now()
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			sess, err := co.Open(ctx, id, sigs)
			if err != nil {
				errc <- err
				return
			}
			for _, f := range frames {
				buf := make([]byte, f.end-f.start)
				copy(buf, body[f.start:f.end])
				if err := sess.AppendLines(buf, f.records, f.firstLine); err != nil {
					sess.Abort()
					errc <- err
					return
				}
			}
			if _, _, err := sess.Close(ctx); err != nil {
				errc <- err
			}
		}(ids[i])
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if shed := co.Shed(); shed != 0 {
		t.Fatalf("%d shards shed %d batches at default queue depth", shards, shed)
	}
	m, err := co.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	return elapsed, m
}

// ingestOne streams one session of the payload into an existing engine
// via the zero-copy Scanner/arena/AppendBatch path (the same loop as
// ingestNew, reusing the engine so several sessions fold into one
// model). Returns the records appended.
func ingestOne(eng *stream.Engine, sigs []trace.Signal, payload []byte, batch int) (int, error) {
	sc := stream.NewScanner(bytes.NewReader(payload), 0)
	if _, err := sc.ScanHeader(); err != nil {
		return 0, err
	}
	sess, err := eng.Open(sigs)
	if err != nil {
		return 0, err
	}
	var (
		arenas [2]logic.Arena
		raw    stream.RawRecord
		epoch  int
	)
	rows := make([][]logic.Vector, 0, batch)
	powers := make([]float64, 0, batch)
	rowMem := make([]logic.Vector, batch*len(sigs))
	n := 0
	for {
		if err := sc.ScanRecord(&raw); err == io.EOF {
			break
		} else if err != nil {
			sess.Abort()
			return n, err
		}
		a := &arenas[epoch&1]
		if len(rows) == 0 {
			a.Reset()
		}
		k := len(rows) * len(sigs)
		row, err := stream.DecodeRowArena(sigs, &raw, a, rowMem[k:k:k+len(sigs)])
		if err != nil {
			sess.Abort()
			return n, err
		}
		rows = append(rows, row)
		powers = append(powers, *raw.P)
		n++
		if len(rows) == batch {
			if err := sess.AppendBatch(rows, powers); err != nil {
				sess.Abort()
				return n, err
			}
			rows, powers = rows[:0], powers[:0]
			epoch++
		}
	}
	if len(rows) > 0 {
		if err := sess.AppendBatch(rows, powers); err != nil {
			sess.Abort()
			return n, err
		}
	}
	if _, err := sess.Close(); err != nil {
		return n, err
	}
	return n, nil
}

// TestShardScalingGate is the `make bench-shard` gate for the sharded
// ingest fan-out. It always enforces the correctness half: the model a
// coordinator mines at 1, 2, 4 and 8 shards must deep-equal the
// single-engine model over the same sessions, with zero batches shed.
// The throughput half — aggregate ingest >=3x at 4 shards vs 1 — is
// enforced when the host has the parallel headroom to make the claim
// honest (GOMAXPROCS >= shardGateMinProcs); below that the measured
// scaling is only logged.
func TestShardScalingGate(t *testing.T) {
	if os.Getenv("BENCH_SHARD") == "" {
		t.Skip("set BENCH_SHARD=1 (or run `make bench-shard`) to run the shard scaling gate")
	}
	const records, sessions, batch = 10000, 8, 256
	payload := ingestPayload(records, 0x9e3779b97f4a7c15)

	// Single-engine reference over the same content.
	_, _, ref := ingestMany(t, sessions, payload, batch)

	// Correctness across shard counts.
	for _, shards := range []int{1, 2, 4, 8} {
		_, m := shardIngest(t, shards, sessions, payload, batch)
		if !reflect.DeepEqual(ref, m) {
			t.Fatalf("%d-shard model differs from the single-engine reference", shards)
		}
	}

	// Throughput: min-of-rounds wall clock, 1 shard vs 4.
	const rounds = 3
	minOne, minFour := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < rounds; i++ {
		if d, _ := shardIngest(t, 1, sessions, payload, batch); d < minOne {
			minOne = d
		}
		if d, _ := shardIngest(t, 4, sessions, payload, batch); d < minFour {
			minFour = d
		}
	}
	total := sessions * records
	speedup := float64(minOne) / float64(minFour)
	t.Logf("1 shard %v (%.0f rec/s), 4 shards %v (%.0f rec/s) over %d sessions x %d records, speedup %.2fx (GOMAXPROCS=%d)",
		minOne, recPerSec(total, minOne), minFour, recPerSec(total, minFour), sessions, records, speedup, runtime.GOMAXPROCS(0))
	if runtime.GOMAXPROCS(0) < shardGateMinProcs {
		t.Logf("skipping the >=3x throughput assertion: GOMAXPROCS=%d < %d leaves no parallel headroom",
			runtime.GOMAXPROCS(0), shardGateMinProcs)
		return
	}
	if speedup < 3 {
		t.Fatalf("4-shard aggregate speedup %.2fx (min over %d rounds: %v vs %v); gate is 3x",
			speedup, rounds, minFour, minOne)
	}
}

// ingestMany folds the same payload `sessions` times into one engine
// sequentially via the zero-copy path and returns the reference model.
func ingestMany(t testing.TB, sessions int, payload []byte, batch int) (time.Duration, int, *psm.Model) {
	t.Helper()
	sc := stream.NewScanner(bytes.NewReader(payload), 0)
	h, err := sc.ScanHeader()
	if err != nil {
		t.Fatal(err)
	}
	sigs, err := h.Schema()
	if err != nil {
		t.Fatal(err)
	}
	eng := stream.NewEngine(ingestConfig())
	total := 0
	start := time.Now()
	for i := 0; i < sessions; i++ {
		n, err := ingestOne(eng, sigs, payload, batch)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	elapsed := time.Since(start)
	m, err := eng.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return elapsed, total, m
}
