package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachRunsAll(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		var hits [100]int32
		err := ForEach(context.Background(), workers, len(hits), func(_ context.Context, i int) error {
			atomic.AddInt32(&hits[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, h)
			}
		}
	}
}

// TestForEachPropagatesFirstError: item 3 fails, and every later item
// blocks until the pool's context is cancelled, so no worker can finish
// one and take another before the failure has stopped the pool. The
// items that run are therefore 0..3 plus at most one blocked item per
// other worker — a bound that holds for every schedule, unlike a count
// of how far the pool got.
func TestForEachPropagatesFirstError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 2, 8} {
		var ran [1000]atomic.Bool
		err := ForEach(context.Background(), workers, len(ran), func(ctx context.Context, i int) error {
			ran[i].Store(true)
			switch {
			case i == 3:
				return fmt.Errorf("item %d: %w", i, boom)
			case i > 3:
				<-ctx.Done()
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want wrapped boom", workers, err)
		}
		for i := range ran {
			if i <= 3 && !ran[i].Load() {
				t.Errorf("workers=%d: item %d before the failure never ran", workers, i)
			}
			if i >= 3+workers && ran[i].Load() {
				t.Errorf("workers=%d: item %d ran after the failure stopped the pool", workers, i)
			}
		}
	}
}

func TestForEachLowestIndexErrorWins(t *testing.T) {
	// Both items fail; the slower, lower-index failure must be reported.
	errLow := errors.New("low")
	errHigh := errors.New("high")
	err := ForEach(context.Background(), 2, 2, func(_ context.Context, i int) error {
		if i == 0 {
			time.Sleep(20 * time.Millisecond)
			return errLow
		}
		return errHigh
	})
	if !errors.Is(err, errLow) {
		t.Fatalf("err = %v, want the lowest-index error", err)
	}
}

func TestForEachHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran int32
	done := make(chan error, 1)
	go func() {
		done <- ForEach(ctx, 4, 1<<30, func(c context.Context, i int) error {
			atomic.AddInt32(&ran, 1)
			select {
			case <-c.Done():
			case <-time.After(time.Millisecond):
			}
			return nil
		})
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ForEach did not return after cancellation")
	}
	if atomic.LoadInt32(&ran) == 1<<30 {
		t.Error("cancellation did not stop the pool")
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(context.Background(), 4, 0, func(context.Context, int) error {
		t.Error("fn called for empty range")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
