package stream_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"reflect"
	"testing"
	"time"

	"psmkit/internal/logic"
	"psmkit/internal/stream"
	"psmkit/internal/trace"
)

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

// ingestOld is the historical ingest path: bufio/encoding-json Decoder,
// per-record DecodeRow allocation, per-record Session.Append. Returns
// the wall time of the decode+append loop and the resulting model.
func ingestOld(t testing.TB, payload []byte) (time.Duration, int, interface{}) {
	dec := stream.NewDecoder(bytes.NewReader(payload), 0)
	h, err := dec.ReadHeader()
	if err != nil {
		t.Fatal(err)
	}
	sigs, err := h.Schema()
	if err != nil {
		t.Fatal(err)
	}
	eng := stream.NewEngine(ingestConfig())
	sess, err := eng.Open(sigs)
	if err != nil {
		t.Fatal(err)
	}
	var rec stream.Record
	n := 0
	start := time.Now()
	for {
		if err := dec.Next(&rec); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if rec.P == nil {
			t.Fatalf("record %d: missing power", n+1)
		}
		row, err := stream.DecodeRow(sigs, &rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Append(row, *rec.P); err != nil {
			t.Fatal(err)
		}
		n++
	}
	elapsed := time.Since(start)
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := eng.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return elapsed, n, m
}

// ingestNew is the zero-copy path as wired into psmd's trace handler:
// Scanner line framing, fast-path record parse, arena row decoding into
// preallocated headers, and batched AppendBatch with double-buffered
// arenas (the engine retains the previous batch's last row for one
// extra batch).
func ingestNew(t testing.TB, payload []byte, batch int) (time.Duration, int, interface{}) {
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
	sess, err := eng.Open(sigs)
	if err != nil {
		t.Fatal(err)
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
	start := time.Now()
	for {
		if err := sc.ScanRecord(&raw); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if raw.P == nil {
			t.Fatalf("record %d: missing power", n+1)
		}
		a := &arenas[epoch&1]
		if len(rows) == 0 {
			a.Reset()
		}
		k := len(rows) * len(sigs)
		row, err := stream.DecodeRowArena(sigs, &raw, a, rowMem[k:k:k+len(sigs)])
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
		powers = append(powers, *raw.P)
		n++
		if len(rows) == batch {
			if err := sess.AppendBatch(rows, powers); err != nil {
				t.Fatal(err)
			}
			rows, powers = rows[:0], powers[:0]
			epoch++
		}
	}
	if len(rows) > 0 {
		if err := sess.AppendBatch(rows, powers); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := eng.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return elapsed, n, m
}

func recPerSec(n int, d time.Duration) float64 {
	return float64(n) / d.Seconds()
}

// TestIngestGate is the `make bench-ingest` regression gate for the
// zero-copy ingest path: on the same synthetic NDJSON stream, the
// Scanner/arena/AppendBatch pipeline must mine the exact model the
// historical Decoder/Append path mines, and its decode+append loop
// must be >=2x faster (min over interleaved rounds). The absolute
// single-goroutine records/s is logged — the per-core ingest rate
// EXPERIMENTS.md records under "Ingest scaling".
func TestIngestGate(t *testing.T) {
	if os.Getenv("BENCH_INGEST") == "" {
		t.Skip("set BENCH_INGEST=1 (or run `make bench-ingest`) to run the ingest gate")
	}
	const records, batch = 40000, 256
	payload := ingestPayload(records, 0x5851f42d4c957f2d)

	_, _, oldModel := ingestOld(t, payload) // warm both arms before timing
	_, _, newModel := ingestNew(t, payload, batch)
	if !reflect.DeepEqual(oldModel, newModel) {
		t.Fatal("zero-copy ingest mined a different model than the historical path")
	}

	const rounds = 3
	minOld, minNew := time.Duration(1<<62), time.Duration(1<<62)
	n := 0
	for i := 0; i < rounds; i++ {
		var d time.Duration
		if d, n, _ = ingestOld(t, payload); d < minOld {
			minOld = d
		}
		if d, n, _ = ingestNew(t, payload, batch); d < minNew {
			minNew = d
		}
	}
	if n != records {
		t.Fatalf("ingested %d records, want %d", n, records)
	}
	speedup := float64(minOld) / float64(minNew)
	t.Logf("decoder path %v (%.0f rec/s), zero-copy path %v (%.0f rec/s/core) over %d records, speedup %.2fx",
		minOld, recPerSec(n, minOld), minNew, recPerSec(n, minNew), n, speedup)
	if speedup < 2 {
		t.Fatalf("zero-copy ingest speedup %.2fx (min over %d rounds: %v vs %v); gate is 2x",
			speedup, rounds, minNew, minOld)
	}
}
