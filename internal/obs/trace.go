package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value interface{}
}

// KV builds an Attr.
func KV(key string, value interface{}) Attr { return Attr{Key: key, Value: value} }

// maxSpanRecords bounds the finished-span memory the summary tree is
// built from; a run that ends more spans still streams every NDJSON
// event, the overflow is only dropped from the aggregate.
const maxSpanRecords = 1 << 16

// spanRecord is the finished-span residue kept for the summary tree.
type spanRecord struct {
	id, parent int64
	name       string
	dur        time.Duration
}

// Tracer collects spans. Ended spans are emitted immediately as one
// NDJSON event each (when the tracer has a writer) and, on a tracer
// built by NewTracer, retained — bounded — for the per-run summary
// tree. All methods are goroutine-safe; spans from concurrent workers
// interleave in end order.
//
// The zero Tracer is ready to use: it feeds an attached flight recorder
// and span window (SetFlight, SetSpanWindow) but emits no events and
// keeps no span records, so its Summary is empty. psmd's always-on
// internal tracer is one — nothing reads its summary.
type Tracer struct {
	nextID atomic.Int64

	// flight and spanWin are attached before the tracer is shared (see
	// SetFlight/SetSpanWindow) and read without t.mu afterwards.
	flight  *Flight
	spanWin *WindowedHistogram

	// w and summary are fixed at construction.
	w       io.Writer // nil: no events
	summary bool      // retain span records for Summary (NewTracer)

	mu      sync.Mutex
	records []spanRecord
	dropped int
	err     error // first write error
}

// NewTracer returns a tracer streaming span events to w as NDJSON and
// retaining the span records its summary tree is built from. A nil w
// collects the summary tree without emitting events.
func NewTracer(w io.Writer) *Tracer { return &Tracer{w: w, summary: true} }

// SetFlight attaches a flight recorder: every ended span is also
// captured in the ring. Attach before the tracer is shared across
// goroutines.
func (t *Tracer) SetFlight(f *Flight) {
	if t == nil {
		return
	}
	t.flight = f
}

// SetSpanWindow attaches a windowed histogram observing every ended
// span's duration in milliseconds. Attach before the tracer is shared
// across goroutines.
func (t *Tracer) SetSpanWindow(h *WindowedHistogram) {
	if t == nil {
		return
	}
	t.spanWin = h
}

// Err returns the first event-write error, if any.
func (t *Tracer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Span is one timed operation. The zero value of the *pointer* — nil —
// is valid and inert: every method no-ops, so instrumented code never
// checks whether tracing is on.
type Span struct {
	t      *Tracer
	id     int64
	parent int64
	name   string
	start  time.Time

	mu    sync.Mutex
	attrs []Attr
	ended bool
}

type spanCtxKey struct{}

// Start opens a span under the context's tracer, nested below the
// context's current span. It returns the child context carrying the new
// span and the span itself; both are inert (ctx unchanged, span nil)
// when the context has no tracer, so the disabled path costs one
// context lookup and nothing else.
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	t := TracerFrom(ctx)
	if t == nil {
		return ctx, nil
	}
	var parent int64
	if ps, ok := ctx.Value(spanCtxKey{}).(*Span); ok && ps != nil {
		parent = ps.id
	}
	s := &Span{t: t, id: t.nextID.Add(1), parent: parent, name: name, start: time.Now()}
	if len(attrs) > 0 {
		s.attrs = append(s.attrs, attrs...)
	}
	return context.WithValue(ctx, spanCtxKey{}, s), s
}

// SetAttr annotates the span; a later value for the same key wins in
// the event encoding (attrs marshal as a JSON object).
func (s *Span) SetAttr(key string, value interface{}) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// spanEvent is the NDJSON wire form of one finished span.
type spanEvent struct {
	Name    string                 `json:"name"`
	ID      int64                  `json:"id"`
	Parent  int64                  `json:"parent,omitempty"`
	StartNS int64                  `json:"start_ns"`
	DurNS   int64                  `json:"dur_ns"`
	Attrs   map[string]interface{} `json:"attrs,omitempty"`
}

// End closes the span: the flight recorder and span window see it, the
// event is emitted and the span joins the summary tree. End is
// idempotent; a nil span no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	dur := time.Since(s.start)
	at := s.attrs
	s.mu.Unlock()

	t := s.t
	t.flight.RecordSpan(s.name, s.id, s.parent, s.start, dur, at)
	t.spanWin.Observe(float64(dur.Nanoseconds()) / 1e6)
	if t.w == nil && !t.summary {
		return
	}
	var line []byte
	var err error
	if t.w != nil {
		var attrs map[string]interface{}
		if len(at) > 0 {
			attrs = make(map[string]interface{}, len(at))
			for _, a := range at {
				attrs[a.Key] = a.Value
			}
		}
		line, err = json.Marshal(spanEvent{
			Name:    s.name,
			ID:      s.id,
			Parent:  s.parent,
			StartNS: s.start.UnixNano(),
			DurNS:   dur.Nanoseconds(),
			Attrs:   attrs,
		})
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.w != nil {
		if err == nil {
			_, err = fmt.Fprintf(t.w, "%s\n", line)
		}
		if err != nil && t.err == nil {
			t.err = err
		}
	}
	if !t.summary {
		return
	}
	if len(t.records) < maxSpanRecords {
		t.records = append(t.records, spanRecord{id: s.id, parent: s.parent, name: s.name, dur: dur})
	} else {
		t.dropped++
	}
}

// Summary is the aggregated span tree of a run: sibling spans with the
// same name fold into one node (Count, summed Total), recursively.
type Summary struct {
	Name     string
	Count    int
	Total    time.Duration
	Children []*Summary
}

// Find returns the first child (depth-first) with the given name, or
// nil. The root itself is considered.
func (n *Summary) Find(name string) *Summary {
	if n == nil {
		return nil
	}
	if n.Name == name {
		return n
	}
	for _, c := range n.Children {
		if f := c.Find(name); f != nil {
			return f
		}
	}
	return nil
}

// Summary builds the aggregate tree over the spans ended so far. The
// returned root is a synthetic "run" node whose children are the
// top-level spans grouped by name; sums of concurrent children may
// exceed their parent's wall-clock — that is the point, the tree shows
// where the work went, not where the clock went.
func (t *Tracer) Summary() *Summary {
	t.mu.Lock()
	recs := append([]spanRecord(nil), t.records...)
	t.mu.Unlock()

	kids := make(map[int64][]spanRecord)
	for _, r := range recs {
		kids[r.parent] = append(kids[r.parent], r)
	}
	var build func(name string, group []spanRecord) *Summary
	build = func(name string, group []spanRecord) *Summary {
		n := &Summary{Name: name, Count: len(group)}
		var sub []spanRecord
		for _, r := range group {
			n.Total += r.dur
			sub = append(sub, kids[r.id]...)
		}
		n.Children = groupByName(sub, build)
		return n
	}
	root := &Summary{Name: "run"}
	root.Children = groupByName(kids[0], build)
	for _, c := range root.Children {
		root.Count += c.Count
		root.Total += c.Total
	}
	return root
}

// groupByName folds sibling spans with equal names, first-seen order.
func groupByName(recs []spanRecord, build func(string, []spanRecord) *Summary) []*Summary {
	groups := make(map[string][]spanRecord)
	var order []string
	for _, r := range recs {
		if _, ok := groups[r.name]; !ok {
			order = append(order, r.name)
		}
		groups[r.name] = append(groups[r.name], r)
	}
	var out []*Summary
	for _, name := range order {
		out = append(out, build(name, groups[name]))
	}
	return out
}

// WriteSummary renders the summary tree with durations, the share of
// the run total, and span counts.
func (t *Tracer) WriteSummary(w io.Writer) error {
	root := t.Summary()
	total := root.Total
	if _, err := fmt.Fprintf(w, "span summary (total %v)\n", total.Round(time.Microsecond)); err != nil {
		return err
	}
	var walk func(n *Summary, depth int) error
	walk = func(n *Summary, depth int) error {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(n.Total) / float64(total)
		}
		if _, err := fmt.Fprintf(w, "  %s%-*s %12v %6.1f%%  x%d\n",
			strings.Repeat("  ", depth), 24-2*depth, n.Name,
			n.Total.Round(time.Microsecond), pct, n.Count); err != nil {
			return err
		}
		for _, c := range n.Children {
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	for _, c := range root.Children {
		if err := walk(c, 0); err != nil {
			return err
		}
	}
	t.mu.Lock()
	dropped := t.dropped
	t.mu.Unlock()
	if dropped > 0 {
		if _, err := fmt.Fprintf(w, "  (%d spans beyond the %d-record summary bound)\n", dropped, maxSpanRecords); err != nil {
			return err
		}
	}
	return nil
}
