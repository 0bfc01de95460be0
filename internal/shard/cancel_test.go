package shard_test

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
)

// cancelAfter is a context whose Err reports nil for its first k calls
// and context.Canceled from then on, so an operation that polls it stops
// at a chosen point. At one worker a snapshot's chain rebuild polls it
// once per chain (pipeline.ForEach), shard by shard.
type cancelAfter struct {
	context.Context
	left  atomic.Int64
	calls atomic.Int64
}

func newCancelAfter(k int) *cancelAfter {
	c := &cancelAfter{Context: context.Background()}
	c.left.Store(int64(k))
	return c
}

func (c *cancelAfter) Err() error {
	c.calls.Add(1)
	if c.left.Add(-1) >= 0 {
		return nil
	}
	return context.Canceled
}

// TestSnapshotCancelledMidExport cancels a snapshot partway through its
// shards' chain rebuild — after k = 1, 2, 3 of at least five chains — at
// shard counts {1, 2}. The snapshot fails with context.Canceled and is
// not cached, and the next, uncancelled snapshot is byte-identical in
// DOT and JSON to a fresh engine fed the same sessions. The rebuild the
// cancelled snapshot began is counted once, by the snapshot that
// completes it: one rebuild, no delta.
func TestSnapshotCancelledMidExport(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	c := genParityCase(rng)
	for len(c.fts) < 5 {
		c = genParityCase(rng)
	}
	for _, n := range []int{1, 2} {
		for k := 1; k <= 3; k++ {
			co := newCoordinator(c, n, 1)
			order := interleave(t, co, c, rng, func(*rand.Rand, []int) int { return 0 })
			cached := func() int64 { return co.Registry().Snapshot().Counters["psmd_snapshots_cached_total"] }

			cctx := newCancelAfter(k)
			if _, err := co.Snapshot(cctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("shards %d k %d: cancelled snapshot returned %v, want context.Canceled", n, k, err)
			}
			if calls := cctx.calls.Load(); calls != int64(k)+1 {
				t.Fatalf("shards %d k %d: the snapshot stopped at check %d, want %d (after %d chains)", n, k, calls, k+1, k)
			}
			if got := cached(); got != 0 {
				t.Fatalf("shards %d k %d: cancelled snapshot moved the cached count to %d", n, k, got)
			}

			m, err := co.Snapshot(context.Background())
			if err != nil {
				t.Fatalf("shards %d k %d: snapshot after the cancelled one: %v", n, k, err)
			}
			if got := cached(); got != 0 {
				t.Fatalf("shards %d k %d: the snapshot after a cancelled one was served from the cache", n, k)
			}
			if met := co.Metrics(); met.Snapshots != 1 || met.Rebuilds != 1 || met.DeltaSnapshots != 0 {
				t.Fatalf("shards %d k %d: snapshots %d rebuilds %d delta %d after a cancelled and a plain snapshot, want 1/1/0",
					n, k, met.Snapshots, met.Rebuilds, met.DeltaSnapshots)
			}
			gd, gj := exports(t, m)
			wd, wj := exports(t, engineSnapshot(t, c, order))
			if gd != wd || gj != wj {
				t.Fatalf("shards %d k %d order %v: the snapshot after a cancelled one differs from a fresh engine's", n, k, order)
			}
			co.Close()
		}
	}
}
