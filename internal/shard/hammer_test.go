package shard_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"sync"
	"testing"
	"time"

	"psmkit/internal/shard"
	"psmkit/internal/stream"
)

// TestCoordinatorHammer races concurrent sessions (with aborts right
// after Open, mid-session and after the last record) against continuous
// snapshots and periodic flushes on a 4-shard coordinator. The
// coordinator must come out clean: no open sessions, aborted sessions
// invisible (the ingest counter holds exactly the closed sessions'
// records), the final model byte-identical to the batch flow over the
// completed sessions in canonical shard-major order, and no goroutine
// left behind once it is closed. Under `make race` this is the
// data-race hammer for the queue/cut/snapshot interleaving.
func TestCoordinatorHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	c := genParityCase(rng)
	baseline := runtime.NumGoroutine()
	co := newCoordinator(c, 4, 2)
	defer co.Close()
	ctx := context.Background()

	stop := make(chan struct{})
	var bgWG sync.WaitGroup
	bgWG.Add(1)
	go func() {
		defer bgWG.Done()
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			if k%5 == 4 {
				if err := co.Flush(ctx); err != nil {
					t.Error(err)
					return
				}
			} else {
				// "no completed traces" is expected early in the hammer;
				// consistency is asserted by the final snapshot.
				//psmlint:ignore err-drop chaos arm; the final snapshot asserts consistency
				_, _ = co.Snapshot(ctx)
			}
			time.Sleep(300 * time.Microsecond)
		}
	}()

	type done struct{ shardIdx, local, traceIdx int }
	var (
		mu      sync.Mutex
		closed  []done
		records int64 // rows of the closed sessions
	)
	const workers, perWorker = 6, 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for it := 0; it < perWorker; it++ {
				i := rng.Intn(len(c.fts))
				id := fmt.Sprintf("hammer-%d-%d", seed, it)
				s, err := co.Open(ctx, id, c.fts[i].Signals)
				if err != nil {
					t.Error(err)
					return
				}
				n := c.fts[i].Len()
				// Half the sessions complete; the other half abort, a
				// sixth each at every stage of a session's life.
				abortAt := -1
				switch (int(seed)*perWorker + it) % 6 {
				case 3: // right after Open
					abortAt = 0
				case 4: // mid-session
					abortAt = 1 + rng.Intn(n-1)
				case 5: // after the last record, just before Close
					abortAt = n
				}
				aborted := false
				for r := 0; r < n; r++ {
					if r == abortAt {
						s.Abort()
						aborted = true
						break
					}
					if err := appendRecord(s, c.fts[i].Row(r), c.pws[i].Values[r], 2+r); err != nil {
						t.Error(err)
						s.Abort()
						aborted = true
						break
					}
				}
				if !aborted && abortAt == n {
					s.Abort()
					aborted = true
				}
				if aborted {
					continue
				}
				local, rows, err := s.Close(ctx)
				if err != nil {
					t.Error(err)
					continue
				}
				if rows != n {
					t.Errorf("session %s: %d rows landed, want %d", id, rows, n)
				}
				mu.Lock()
				closed = append(closed, done{s.Shard(), local, i})
				records += int64(rows)
				mu.Unlock()
			}
		}(int64(w) + 1)
	}
	wg.Wait()
	close(stop)
	bgWG.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if len(closed) == 0 {
		t.Fatal("hammer completed no sessions")
	}
	if err := co.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	sortDone := func(a, b done) bool {
		if a.shardIdx != b.shardIdx {
			return a.shardIdx < b.shardIdx
		}
		return a.local < b.local
	}
	for i := range closed {
		for j := i + 1; j < len(closed); j++ {
			if sortDone(closed[j], closed[i]) {
				closed[i], closed[j] = closed[j], closed[i]
			}
		}
	}
	order := make([]int, len(closed))
	for i, d := range closed {
		order[i] = d.traceIdx
	}

	live, err := co.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := batchModel(c, order)
	if err != nil {
		t.Fatal(err)
	}
	ld, lj := exports(t, live)
	bd, bj := exports(t, batch)
	if ld != bd || lj != bj {
		t.Fatal("post-hammer model differs from batch over canonical shard-major order")
	}
	// The delta path must serve identical bytes.
	again, err := co.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ad, aj := exports(t, again)
	if ad != ld || aj != lj {
		t.Fatal("repeat snapshot differs: the cross-shard pool was mutated")
	}
	m := co.Metrics()
	if m.OpenSessions != 0 {
		t.Fatalf("%d sessions still open after the hammer", m.OpenSessions)
	}
	if m.TracesCompleted != len(closed) {
		t.Fatalf("coordinator counts %d completed traces, hammer closed %d", m.TracesCompleted, len(closed))
	}
	if m.RecordsIngested != records {
		t.Fatalf("coordinator counts %d ingested records, the closed sessions hold %d", m.RecordsIngested, records)
	}

	co.Close()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			var dump bytes.Buffer
			pprof.Lookup("goroutine").WriteTo(&dump, 1)
			t.Fatalf("%d goroutines after Close, %d before the coordinator started:\n%s", runtime.NumGoroutine(), baseline, dump.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// encodeRepeatedLines renders trace `idx` of the case as wire-format
// NDJSON record lines, repeated `repeats` times (no header line).
func encodeRepeatedLines(c parityCase, idx, repeats int) ([]byte, int) {
	var buf bytes.Buffer
	n := 0
	for k := 0; k < repeats; k++ {
		for r := 0; r < c.fts[idx].Len(); r++ {
			row := c.fts[idx].Row(r)
			buf.WriteString(`{"v":[`)
			for j, v := range row {
				if j > 0 {
					buf.WriteByte(',')
				}
				fmt.Fprintf(&buf, "%q", v.Hex())
			}
			fmt.Fprintf(&buf, `],"p":%g}`+"\n", c.pws[idx].Values[r])
			n++
		}
	}
	return buf.Bytes(), n
}

// TestBackpressureShedsWithSaturatedError pins the load-shed contract:
// with a depth-1 queue and a 1ms enqueue timeout, appends behind a
// parse-heavy batch must fail with SaturatedError carrying the shard
// index and the timeout as the Retry-After hint, and both the fleet
// Shed counter and the per-shard metric row must account for every
// shed batch.
func TestBackpressureShedsWithSaturatedError(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := genParityCase(rng)
	co := shard.New(shard.Config{
		Shards:         1,
		QueueDepth:     1,
		EnqueueTimeout: time.Millisecond,
		Stream:         stream.Config{Config: flowConfig(1), Inputs: c.inputs},
	})
	defer co.Close()
	ctx := context.Background()

	s, err := co.Open(ctx, "slow", c.fts[0].Signals)
	if err != nil {
		t.Fatal(err)
	}
	// Each batch takes the worker far longer to parse than the 1ms
	// enqueue timeout, so with one slot past the in-flight batch the
	// pump below must shed at least once.
	payload, nrec := encodeRepeatedLines(c, 0, 400)
	shed := 0
	var sat *shard.SaturatedError
	for k := 0; k < 6; k++ {
		buf := append([]byte(nil), payload...)
		if err := s.AppendLines(buf, nrec, 2); err != nil {
			if !errors.As(err, &sat) {
				t.Fatalf("append %d: unexpected error: %v", k, err)
			}
			shed++
		}
	}
	if shed == 0 {
		t.Fatal("no batch shed at queue depth 1 with a 1ms enqueue timeout")
	}
	if sat.Shard != 0 {
		t.Fatalf("SaturatedError names shard %d, want 0", sat.Shard)
	}
	if sat.RetryAfter != time.Millisecond {
		t.Fatalf("SaturatedError Retry-After %v, want the enqueue timeout (1ms)", sat.RetryAfter)
	}
	if got := co.Shed(); got != int64(shed) {
		t.Fatalf("fleet shed counter %d, want %d", got, shed)
	}
	rows := co.ShardMetrics()
	if len(rows) != 1 {
		t.Fatalf("%d shard metric rows, want 1", len(rows))
	}
	if rows[0].Shed != int64(shed) {
		t.Fatalf("shard row shed %d, want %d", rows[0].Shed, shed)
	}
	if rows[0].QueueCap != 1 {
		t.Fatalf("shard row queue cap %d, want 1", rows[0].QueueCap)
	}
	// The session survives shedding: the client decides whether to
	// retry or abandon. Abandon here and verify nothing leaks.
	s.Abort()
	if err := co.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if m := co.Metrics(); m.OpenSessions != 0 || m.TracesCompleted != 0 {
		t.Fatalf("shed/aborted session leaked state: %+v", m)
	}
}
