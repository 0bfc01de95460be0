package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"maps"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically-adjusted integer metric. A nil *Counter —
// what a nil Registry hands out — is inert.
type Counter struct{ v atomic.Int64 }

// Add adjusts the counter. Negative deltas are allowed: the engine's
// records-ingested counter rolls back when a session aborts.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time float metric. A nil *Gauge is inert.
type Gauge struct{ bits atomic.Uint64 }

// Set stores the current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last value set (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution. bounds are upper bounds,
// exclusive — counts[i] tallies observations v < bounds[i] that missed
// every earlier bucket; counts[len(bounds)] is the overflow. A nil
// *Histogram is inert.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []int64
	sum    float64
	n      int64
}

// Observe tallies one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	slot := len(h.bounds)
	for i, ub := range h.bounds {
		if v < ub {
			slot = i
			break
		}
	}
	h.counts[slot]++
	h.sum += v
	h.n++
	h.mu.Unlock()
}

// HistogramSnapshot is a histogram's point-in-time state.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  int64     `json:"count"`
}

// Quantile estimates the q-quantile (q in [0,1], clamped) of the
// snapshotted distribution by linear interpolation within bucket
// bounds: the first bucket spans [0, Bounds[0]), bucket i spans
// [Bounds[i-1], Bounds[i]), and the overflow bucket is pinned to the
// last bound — an estimator can only interpolate inside known bounds,
// so overflow mass reports the highest finite bound rather than
// inventing an upper limit. Returns 0 on an empty snapshot; never NaN
// or Inf, so the result is always JSON-encodable.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count <= 0 || len(s.Bounds) == 0 || len(s.Counts) != len(s.Bounds)+1 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := 0.0
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if rank > next && i < len(s.Counts)-1 {
			cum = next
			continue
		}
		if i == len(s.Counts)-1 {
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		frac := (rank - cum) / float64(c)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		return lo + (hi-lo)*frac
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Snapshot returns the histogram's point-in-time state (zero on nil).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]int64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.n,
	}
}

// ExponentialBuckets returns count upper bounds start, start·factor,
// start·factor², … — the geometry that keeps sub-millisecond and
// multi-second observations apart in the same histogram.
func ExponentialBuckets(start, factor float64, count int) []float64 {
	out := make([]float64, count)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Registry names and owns the process's instruments. Get-or-create
// accessors make call sites declarative; a nil *Registry hands out nil
// instruments so instrumented code pays one nil check when metrics are
// off.
type Registry struct {
	mu        sync.Mutex
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	hists     map[string]*Histogram
	windows   map[string]*WindowedHistogram
	wcounters map[string]*WindowedCounter
	cfuncs    map[string]func() int64
	gfuncs    map[string]func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:  map[string]*Counter{},
		gauges:    map[string]*Gauge{},
		hists:     map[string]*Histogram{},
		windows:   map[string]*WindowedHistogram{},
		wcounters: map[string]*WindowedCounter{},
		cfuncs:    map[string]func() int64{},
		gfuncs:    map[string]func() float64{},
	}
}

// CounterFunc registers a counter whose value is read from f whenever
// the registry is exported — for totals another component owns, such as
// a shard fleet's summed ingest counters. f runs outside the registry
// lock, so it may take locks of its own, and it must be goroutine-safe.
// A func-backed value replaces a plain counter of the same name in the
// export.
func (r *Registry) CounterFunc(name string, f func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.cfuncs[name] = f
	r.mu.Unlock()
}

// GaugeFunc is CounterFunc for a gauge.
func (r *Registry) GaugeFunc(name string, f func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gfuncs[name] = f
	r.mu.Unlock()
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (an existing histogram keeps its bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]int64, len(bounds)+1),
		}
		r.hists[name] = h
	}
	return h
}

// Window returns the named windowed histogram, creating it with the
// given bucket bounds and window geometry on first use (an existing
// window keeps its configuration).
func (r *Registry) Window(name string, bounds []float64, interval time.Duration, windows int) *WindowedHistogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.windows[name]
	if !ok {
		h = NewWindowedHistogram(bounds, interval, windows)
		r.windows[name] = h
	}
	return h
}

// WindowCounter returns the named windowed counter, creating it with
// the given window geometry on first use.
func (r *Registry) WindowCounter(name string, interval time.Duration, windows int) *WindowedCounter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.wcounters[name]
	if !ok {
		c = NewWindowedCounter(interval, windows)
		r.wcounters[name] = c
	}
	return c
}

// Snapshot captures every instrument's current value.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	// Windows holds the merged state of every windowed histogram — the
	// distribution over the most recent window, not since boot.
	Windows map[string]HistogramSnapshot `json:"windows,omitempty"`
}

// Snapshot returns a point-in-time copy of the registry (empty on nil).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	if len(r.windows) > 0 {
		s.Windows = make(map[string]HistogramSnapshot, len(r.windows))
		for name, wh := range r.windows {
			s.Windows[name] = wh.Snapshot()
		}
	}
	cfuncs, gfuncs := maps.Clone(r.cfuncs), maps.Clone(r.gfuncs)
	r.mu.Unlock()
	for name, f := range cfuncs {
		s.Counters[name] = f()
	}
	for name, f := range gfuncs {
		s.Gauges[name] = f()
	}
	return s
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format, names sorted for a stable scrape.
func (r *Registry) WritePrometheus(w io.Writer) error {
	s := r.Snapshot()
	for _, name := range sortedKeys(s.Counters) {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, s.Counters[name]); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", name, name, s.Gauges[name]); err != nil {
			return err
		}
	}
	hnames := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		h := s.Histograms[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
			return err
		}
		cum := int64(0)
		for i, ub := range h.Bounds {
			cum += h.Counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, ub, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %g\n%s_count %d\n",
			name, h.Count, name, h.Sum, name, h.Count); err != nil {
			return err
		}
	}
	// Windowed histograms export as Prometheus summaries: their state is
	// already a sliding window, which is what a summary's quantiles mean.
	for _, name := range sortedKeys(s.Windows) {
		h := s.Windows[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s summary\n", name); err != nil {
			return err
		}
		for _, q := range [...]float64{0.5, 0.95, 0.99} {
			if _, err := fmt.Fprintf(w, "%s{quantile=\"%g\"} %g\n", name, q, h.Quantile(q)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", name, h.Sum, name, h.Count); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// WriteExpvarJSON renders the expvar-style JSON document: the caller's
// own sections (sorted by name) followed by every process-global expvar
// — cmdline, memstats, whatever else is registered. This is the
// module's single expvar access point: servers inject their per-engine
// sections here instead of contending over the global expvar namespace.
func WriteExpvarJSON(w io.Writer, extra map[string]interface{}) error {
	if _, err := fmt.Fprintf(w, "{\n"); err != nil {
		return err
	}
	first := true
	for _, name := range sortedKeys(extra) {
		val, err := json.Marshal(extra[name])
		if err != nil {
			return err
		}
		sep := ",\n"
		if first {
			sep, first = "", false
		}
		if _, err := fmt.Fprintf(w, "%s%q: %s", sep, name, val); err != nil {
			return err
		}
	}
	var werr error
	expvar.Do(func(kv expvar.KeyValue) {
		sep := ",\n"
		if first {
			sep, first = "", false
		}
		if _, err := fmt.Fprintf(w, "%s%q: %s", sep, kv.Key, kv.Value); err != nil && werr == nil {
			werr = err
		}
	})
	if werr != nil {
		return werr
	}
	_, err := fmt.Fprintf(w, "\n}\n")
	return err
}
