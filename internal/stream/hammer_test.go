package stream_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestEngineAbortHammerUnderSnapshots races mid-session cancellation
// against concurrent snapshots: several goroutines stream sessions and
// abort a fraction of them partway through while a background goroutine
// snapshots continuously (some under already-cancelled contexts). The
// engine must come out clean — no open sessions, aborted uploads
// invisible (their records rolled back out of the ingest counter), and
// the final model byte-identical to the batch flow over exactly the
// completed sessions in completion order. Run under `make race` this
// doubles as the data-race hammer for the session/epoch-cache
// interleaving.
func TestEngineAbortHammerUnderSnapshots(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	c := genParityCase(rng)
	e := newTestEngine(c)

	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			ctx := context.Background()
			if k%3 == 2 {
				// Every third snapshot runs under a dead context: the
				// cancellation path must leave the epoch cache usable.
				dead, cancel := context.WithCancel(ctx)
				cancel()
				ctx = dead
			}
			// Failures ("no completed traces", context cancelled) are
			// expected mid-hammer; consistency is asserted at the end.
			//psmlint:ignore err-drop chaos arm; the final snapshot asserts consistency
			_, _ = e.Snapshot(ctx)
			time.Sleep(200 * time.Microsecond)
		}
	}()

	const workers, perWorker = 6, 3
	var (
		mu        sync.Mutex
		completed = map[int]int{} // engine completion index -> case trace
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for it := 0; it < perWorker; it++ {
				i := rng.Intn(len(c.fts))
				s, err := e.Open(c.fts[i].Signals)
				if err != nil {
					t.Error(err)
					return
				}
				n := c.fts[i].Len()
				abortAt := -1
				if rng.Float64() < 0.4 {
					abortAt = 1 + rng.Intn(n-1)
				}
				aborted := false
				for r := 0; r < n; r++ {
					if r == abortAt {
						s.Abort()
						aborted = true
						break
					}
					if err := s.Append(c.fts[i].Row(r), c.pws[i].Values[r]); err != nil {
						t.Error(err)
						s.Abort()
						aborted = true
						break
					}
				}
				if aborted {
					continue
				}
				idx, err := s.Close()
				if err != nil {
					t.Error(err)
					continue
				}
				mu.Lock()
				completed[idx] = i
				mu.Unlock()
			}
		}(int64(w) + 100)
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if len(completed) == 0 {
		t.Fatal("hammer completed no sessions")
	}

	// Completion indices are dense (aborts consume none), so they define
	// the canonical order directly.
	order := make([]int, len(completed))
	for idx, ci := range completed {
		if idx < 0 || idx >= len(order) {
			t.Fatalf("completion index %d out of range for %d completed sessions", idx, len(order))
		}
		order[idx] = ci
	}
	live, err := e.Snapshot(context.Background())
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
		t.Fatal("post-hammer model differs from batch over the completed sessions")
	}
	m := e.Metrics()
	if m.OpenSessions != 0 {
		t.Fatalf("%d sessions still open after the hammer", m.OpenSessions)
	}
	if m.TracesCompleted != len(completed) {
		t.Fatalf("engine counts %d completed traces, hammer closed %d", m.TracesCompleted, len(completed))
	}
	// Aborts roll their records back: the ingest counter holds exactly
	// the completed sessions' rows.
	var records int64
	for _, ci := range completed {
		records += int64(c.fts[ci].Len())
	}
	if m.RecordsIngested != records {
		t.Fatalf("engine counts %d ingested records, the completed sessions hold %d", m.RecordsIngested, records)
	}
}
