package obs

import (
	"context"
	"math"
	"testing"
	"time"
)

func TestQuantileUniformBuckets(t *testing.T) {
	s := HistogramSnapshot{
		Bounds: []float64{10, 20, 30},
		Counts: []int64{10, 10, 10, 0},
		Count:  30,
	}
	for _, tc := range []struct{ q, want float64 }{
		{0, 0}, {0.25, 7.5}, {0.5, 15}, {0.75, 22.5}, {1, 30},
	} {
		if got := s.Quantile(tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Fatalf("Quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
}

func TestQuantileSkewedDistribution(t *testing.T) {
	// 90% of mass in the first bucket, a long tail behind it — the shape
	// of a healthy latency distribution.
	s := HistogramSnapshot{
		Bounds: []float64{10, 20, 30},
		Counts: []int64{90, 9, 1, 0},
		Count:  100,
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 10 * 50.0 / 90.0},
		{0.95, 10 + 10*5.0/9.0},
		{0.99, 20},
	} {
		if got := s.Quantile(tc.q); math.Abs(got-tc.want) > 1e-9 {
			t.Fatalf("Quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
}

func TestQuantileOverflowClampsToLastBound(t *testing.T) {
	s := HistogramSnapshot{
		Bounds: []float64{1, 2, 4},
		Counts: []int64{0, 0, 0, 5},
		Count:  5,
	}
	for _, q := range []float64{0.1, 0.5, 0.99} {
		if got := s.Quantile(q); got != 4 {
			t.Fatalf("Quantile(%g) = %g, want 4 (last bound)", q, got)
		}
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Fatalf("empty snapshot Quantile = %g, want 0", got)
	}
	s := HistogramSnapshot{Bounds: []float64{10}, Counts: []int64{4, 0}, Count: 4}
	if got := s.Quantile(-1); got != 0 {
		t.Fatalf("Quantile(-1) = %g, want 0 (clamped)", got)
	}
	if got := s.Quantile(2); got != 10 {
		t.Fatalf("Quantile(2) = %g, want 10 (clamped)", got)
	}
	for _, q := range []float64{0, 0.5, 1} {
		if got := s.Quantile(q); math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("Quantile(%g) = %g, not JSON-safe", q, got)
		}
	}
}

func TestWindowedHistogramRotation(t *testing.T) {
	var now int64
	h := NewWindowedHistogram([]float64{10, 100}, time.Second, 3)
	h.nowNS = func() int64 { return now }

	now = 0 // epoch 0
	h.Observe(5)
	h.Observe(50)
	now = int64(2 * time.Second) // epoch 2, still inside (cur-3, cur]
	h.Observe(5)
	s := h.Snapshot()
	if s.Count != 3 || s.Counts[0] != 2 || s.Counts[1] != 1 {
		t.Fatalf("windowed snapshot = %+v, want 3 observations (2 small, 1 mid)", s)
	}

	now = int64(4 * time.Second) // epoch 4: epoch 0 aged out, epoch 2 remains
	s = h.Snapshot()
	if s.Count != 1 || s.Counts[0] != 1 {
		t.Fatalf("after aging: %+v, want only the epoch-2 observation", s)
	}

	now = int64(10 * time.Second) // everything aged out
	if s = h.Snapshot(); s.Count != 0 || s.Sum != 0 {
		t.Fatalf("after full aging: %+v, want empty", s)
	}

	// A slot recycled for a new epoch must shed its old tallies.
	now = int64(12 * time.Second) // epoch 12 lands on slot 12%4 = 0, reused
	h.Observe(7)
	if s = h.Snapshot(); s.Count != 1 {
		t.Fatalf("recycled slot kept stale tallies: %+v", s)
	}
}

func TestWindowedHistogramDefaultsAndNil(t *testing.T) {
	h := NewWindowedHistogram([]float64{1}, 0, 0)
	if got := h.WindowDuration(); got != DefaultWindowInterval*time.Duration(DefaultWindowSlots) {
		t.Fatalf("default WindowDuration = %v", got)
	}
	var nh *WindowedHistogram
	nh.Observe(1)
	if s := nh.Snapshot(); s.Count != 0 || nh.WindowDuration() != 0 {
		t.Fatal("nil WindowedHistogram is not inert")
	}
}

func TestWindowedCounterRotation(t *testing.T) {
	var now int64
	c := NewWindowedCounter(time.Second, 3)
	c.nowNS = func() int64 { return now }

	now = 0
	c.Add(2)
	now = int64(2 * time.Second)
	c.Add(3)
	if got := c.Sum(); got != 5 {
		t.Fatalf("Sum = %d, want 5", got)
	}
	now = int64(4 * time.Second) // first Add aged out
	if got := c.Sum(); got != 3 {
		t.Fatalf("Sum after aging = %d, want 3", got)
	}
	now = int64(60 * time.Second)
	if got := c.Sum(); got != 0 {
		t.Fatalf("Sum after full aging = %d, want 0", got)
	}
	var nc *WindowedCounter
	nc.Add(1)
	if nc.Sum() != 0 || nc.WindowDuration() != 0 {
		t.Fatal("nil WindowedCounter is not inert")
	}
}

func TestRegistryWindowAccessors(t *testing.T) {
	r := NewRegistry()
	w1 := r.Window("lat", []float64{1, 2}, time.Second, 2)
	w2 := r.Window("lat", []float64{9}, time.Minute, 9) // existing keeps config
	if w1 != w2 {
		t.Fatal("Window did not return the existing instrument")
	}
	w1.Observe(1.5)
	snap := r.Snapshot()
	ws, ok := snap.Windows["lat"]
	if !ok || ws.Count != 1 {
		t.Fatalf("Snapshot.Windows = %+v, want lat with 1 observation", snap.Windows)
	}
	c1 := r.WindowCounter("reqs", time.Second, 2)
	if c2 := r.WindowCounter("reqs", time.Minute, 9); c1 != c2 {
		t.Fatal("WindowCounter did not return the existing instrument")
	}
	var nr *Registry
	if nr.Window("x", nil, 0, 0) != nil || nr.WindowCounter("x", 0, 0) != nil {
		t.Fatal("nil Registry handed out non-nil windowed instruments")
	}
}

func TestTracerFlightAndSpanWindow(t *testing.T) {
	f := NewFlight(8)
	wh := NewWindowedHistogram([]float64{1e6}, time.Minute, 1)
	tr := NewTracer(nil)
	tr.SetFlight(f)
	tr.SetSpanWindow(wh)
	ctx := WithTracer(context.Background(), tr)
	_, sp := Start(ctx, "work", KV("k", "v"))
	sp.End()
	snap := f.Snapshot()
	if len(snap) != 1 || snap[0].Kind != "span" || snap[0].Name != "work" {
		t.Fatalf("flight did not capture the span: %+v", snap)
	}
	if got := wh.Snapshot(); got.Count != 1 {
		t.Fatalf("span window Count = %d, want 1", got.Count)
	}
}

// TestZeroTracerKeepsNoRecords pins psmd's always-on tracer: the zero
// Tracer feeds the flight recorder and the span window every span but
// retains no span records, so its summary stays empty however long the
// daemon runs; NewTracer(nil) keeps them for its summary.
func TestZeroTracerKeepsNoRecords(t *testing.T) {
	f := NewFlight(64)
	wh := NewWindowedHistogram([]float64{1e6}, time.Minute, 1)
	tr := new(Tracer)
	tr.SetFlight(f)
	tr.SetSpanWindow(wh)
	ctx := WithTracer(context.Background(), tr)
	for i := 0; i < 10; i++ {
		cctx, sp := Start(ctx, "work")
		_, child := Start(cctx, "step", KV("i", i))
		child.End()
		sp.End()
	}
	if len(tr.records) != 0 || tr.Summary().Count != 0 {
		t.Fatalf("zero tracer kept %d records (summary count %d)", len(tr.records), tr.Summary().Count)
	}
	if got := len(f.Snapshot()); got != 20 {
		t.Fatalf("flight captured %d spans, want 20", got)
	}
	if got := wh.Snapshot().Count; got != 20 {
		t.Fatalf("span window observed %d spans, want 20", got)
	}

	summary := NewTracer(nil)
	_, sp := Start(WithTracer(context.Background(), summary), "work")
	sp.End()
	if summary.Summary().Count != 1 {
		t.Fatal("NewTracer(nil) lost its summary")
	}
}
