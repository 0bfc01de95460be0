package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"psmkit/internal/stats"
)

func TestStartWithoutTracerIsInert(t *testing.T) {
	ctx := context.Background()
	ctx2, span := Start(ctx, "noop", KV("k", 1))
	if span != nil {
		t.Fatal("want nil span without a tracer")
	}
	if ctx2 != ctx {
		t.Fatal("want the context unchanged without a tracer")
	}
	// Every nil-receiver method must no-op.
	span.SetAttr("k", 2)
	span.End()
	span.End()
}

func TestTracerEmitsNestedNDJSON(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	ctx := WithTracer(context.Background(), tr)

	ctx, root := Start(ctx, "root", KV("traces", 3))
	_, child := Start(ctx, "child")
	child.SetAttr("states", 7)
	child.End()
	child.End() // idempotent
	root.End()

	var events []spanEvent
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var ev spanEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if len(events) != 2 {
		t.Fatalf("want 2 events (End is idempotent), got %d", len(events))
	}
	// Ends stream in end order: child first.
	if events[0].Name != "child" || events[1].Name != "root" {
		t.Fatalf("want [child root], got [%s %s]", events[0].Name, events[1].Name)
	}
	if events[0].Parent != events[1].ID {
		t.Fatalf("child.parent = %d, want root id %d", events[0].Parent, events[1].ID)
	}
	if events[1].Parent != 0 {
		t.Fatalf("root.parent = %d, want 0", events[1].Parent)
	}
	if events[0].Attrs["states"] != float64(7) {
		t.Fatalf("child attrs = %v, want states=7", events[0].Attrs)
	}
	if events[1].Attrs["traces"] != float64(3) {
		t.Fatalf("root attrs = %v, want traces=3", events[1].Attrs)
	}
	if tr.Err() != nil {
		t.Fatal(tr.Err())
	}
}

func TestSummaryFoldsSiblingsByName(t *testing.T) {
	tr := NewTracer(nil) // summary only, no writer
	ctx := WithTracer(context.Background(), tr)

	ctx, root := Start(ctx, "build")
	for i := 0; i < 3; i++ {
		_, s := Start(ctx, "simplify")
		s.End()
	}
	_, j := Start(ctx, "join")
	j.End()
	root.End()

	sum := tr.Summary()
	if sum.Name != "run" {
		t.Fatalf("root name = %q", sum.Name)
	}
	b := sum.Find("build")
	if b == nil || b.Count != 1 {
		t.Fatalf("build node missing or miscounted: %+v", b)
	}
	simp := sum.Find("simplify")
	if simp == nil || simp.Count != 3 {
		t.Fatalf("want simplify folded x3, got %+v", simp)
	}
	if sum.Find("join") == nil {
		t.Fatal("join node missing")
	}
	if sum.Find("nonexistent") != nil {
		t.Fatal("Find invented a node")
	}

	var out bytes.Buffer
	if err := tr.WriteSummary(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"span summary", "build", "simplify", "x3"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("summary output missing %q:\n%s", want, out.String())
		}
	}
}

func TestTracerConcurrentSpans(t *testing.T) {
	tr := NewTracer(nil)
	ctx := WithTracer(context.Background(), tr)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				_, s := Start(ctx, "work")
				s.SetAttr("j", j)
				s.End()
			}
		}()
	}
	wg.Wait()
	if n := tr.Summary().Find("work").Count; n != 800 {
		t.Fatalf("want 800 folded spans, got %d", n)
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("reqs") != c {
		t.Fatal("get-or-create returned a different counter")
	}

	g := r.Gauge("depth")
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", g.Value())
	}

	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 0.7, 5, 50, 5000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if want := []int64{2, 1, 1, 1}; len(s.Counts) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(s.Counts), len(want))
	} else {
		for i, w := range want {
			if s.Counts[i] != w {
				t.Fatalf("bucket[%d] = %d, want %d (%v)", i, s.Counts[i], w, s.Counts)
			}
		}
	}
	if s.Count != 5 {
		t.Fatalf("histogram count = %d, want 5", s.Count)
	}
}

func TestNilRegistryAndInstruments(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter must stay 0")
	}
	g := r.Gauge("y")
	g.Set(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge must stay 0")
	}
	h := r.Histogram("z", []float64{1})
	h.Observe(1)
	if h.Snapshot().Count != 0 {
		t.Fatal("nil histogram must stay empty")
	}
}

func TestExponentialBuckets(t *testing.T) {
	b := ExponentialBuckets(0.001, 4, 12)
	if len(b) != 12 {
		t.Fatalf("len = %d, want 12", len(b))
	}
	if math.Abs(b[0]-0.001) > 1e-12 {
		t.Fatalf("b[0] = %v, want 0.001", b[0])
	}
	for i := 1; i < len(b); i++ {
		if math.Abs(b[i]/b[i-1]-4) > 1e-9 {
			t.Fatalf("ratio b[%d]/b[%d] = %v, want 4", i, i-1, b[i]/b[i-1])
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Add(2)
	r.Counter("a_total").Add(1)
	r.Gauge("depth").Set(3)
	h := r.Histogram("lat_ms", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(20)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Names render sorted within each kind.
	if strings.Index(out, "a_total") > strings.Index(out, "b_total") {
		t.Fatalf("counters not sorted:\n%s", out)
	}
	for _, want := range []string{
		"a_total 1",
		"depth 3",
		`lat_ms_bucket{le="1"} 1`,
		`lat_ms_bucket{le="10"} 1`, // cumulative: 20 lands beyond 10
		`lat_ms_bucket{le="+Inf"} 2`,
		"lat_ms_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteExpvarJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteExpvarJSON(&buf, map[string]interface{}{"psmd": map[string]int{"x": 1}}); err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not a JSON object: %v\n%s", err, buf.String())
	}
	if _, ok := doc["psmd"]; !ok {
		t.Fatal("extra section missing")
	}
	// The process-global expvar vars (memstats, cmdline) ride along.
	if _, ok := doc["memstats"]; !ok {
		t.Fatal("expvar globals missing")
	}
}

func TestProvenanceCanonicalOrder(t *testing.T) {
	l := NewProvenanceLog()
	// Arrival order scrambles phases and traces, as parallel workers do.
	l.Record(MergeDecision{Phase: "join", Trace: -1, Test: "welch"})
	l.Record(MergeDecision{Phase: "simplify", Trace: 1, Test: "epsilon"})
	l.Record(MergeDecision{Phase: "simplify", Trace: 0, Test: "epsilon"})
	l.Record(MergeDecision{Phase: "simplify", Trace: 0, Test: "welch"})
	if l.Len() != 4 {
		t.Fatalf("Len = %d, want 4", l.Len())
	}

	ds := l.Decisions()
	wantPhases := []string{"simplify", "simplify", "simplify", "join"}
	wantTraces := []int{0, 0, 1, -1}
	wantTests := []string{"epsilon", "welch", "epsilon", "welch"}
	for i, d := range ds {
		if d.Seq != i {
			t.Fatalf("Seq[%d] = %d, want renumbered %d", i, d.Seq, i)
		}
		if d.Phase != wantPhases[i] || d.Trace != wantTraces[i] || d.Test != wantTests[i] {
			t.Fatalf("decision %d = %+v, want phase=%s trace=%d test=%s",
				i, d, wantPhases[i], wantTraces[i], wantTests[i])
		}
	}

	var nilLog *ProvenanceLog
	nilLog.Record(MergeDecision{})
	if nilLog.Len() != 0 || nilLog.Decisions() != nil {
		t.Fatal("nil log must be inert")
	}
}

func TestDecisionsRoundTrip(t *testing.T) {
	in := []MergeDecision{
		{Seq: 0, Phase: "simplify", Trace: 0,
			A:    MomentsRecord{State: 1, N: 5, Sum: 10, SumSq: 21, Mean: 2, Std: 0.5},
			B:    MomentsRecord{State: 2, N: 4, Sum: 8.4, SumSq: 18, Mean: 2.1, Std: 0.4},
			Case: 2, Test: "welch", Stat: 0.12, Threshold: 0.05, T: 1.3, Accept: false},
		{Seq: 1, Phase: "join", Trace: -1, Case: 1, Test: "epsilon",
			Stat: 0.01, Threshold: 0.05, Accept: true},
	}
	var buf bytes.Buffer
	if err := WriteDecisions(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadDecisions(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip lost decisions: %d != %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("decision %d: got %+v, want %+v", i, out[i], in[i])
		}
	}
	if _, err := ReadDecisions(strings.NewReader("not json\n")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestDecisionsDeriveWhenRead pins what the log computes when it is
// read rather than when a decision is recorded: a t-test recorded with
// (t, df) and no Stat reads back with Stat = TwoSidedTPValue(t, df)
// and no df, any other test keeps its Stat, and every state's ⟨μ, σ⟩
// comes from its sums. What Decisions returns survives the wire: its
// re-encoded parse gives the same bytes, non-finite statistics
// included, and with finite statistics the parse is deep-equal to it.
func TestDecisionsDeriveWhenRead(t *testing.T) {
	welch := MergeDecision{Phase: "simplify", Trace: 0,
		A:    MomentsRecord{State: 1, N: 5, Sum: 10, SumSq: 21},
		B:    MomentsRecord{State: 2, N: 4, Sum: 8.4, SumSq: 18},
		Case: 2, Test: "welch", Threshold: 0.2, T: 1.3, DF: 6.5}
	epsilon := MergeDecision{Phase: "simplify", Trace: 0,
		A:    MomentsRecord{State: 2, N: 1, Sum: 3.5, SumSq: 12.25},
		B:    MomentsRecord{State: 3, N: 1, Sum: 3.6, SumSq: 12.96},
		Case: 1, Test: "epsilon", Stat: 0.027, Threshold: 0.05, Accept: true}
	finite := NewProvenanceLog()
	finite.Record(welch)
	finite.Record(epsilon)
	ds := finite.Decisions()

	if got, want := ds[0].Stat, stats.TwoSidedTPValue(welch.T, welch.DF); got != want || got == 0 {
		t.Fatalf("welch Stat = %v, want TwoSidedTPValue(%v, %v) = %v", got, welch.T, welch.DF, want)
	}
	if ds[0].DF != 0 {
		t.Fatalf("Decisions returned DF %v, want 0", ds[0].DF)
	}
	if ds[1].Stat != epsilon.Stat {
		t.Fatalf("epsilon Stat = %v, want the recorded %v", ds[1].Stat, epsilon.Stat)
	}
	for _, m := range []MomentsRecord{ds[0].A, ds[0].B, ds[1].A, ds[1].B} {
		s := stats.Moments{N: m.N, Sum: m.Sum, SumSq: m.SumSq}
		if m.Mean != s.Mean() || m.Std != s.StdDev() {
			t.Fatalf("state %d: mean %v std %v, want %v and %v from its sums", m.State, m.Mean, m.Std, s.Mean(), s.StdDev())
		}
	}
	var buf bytes.Buffer
	if err := WriteDecisions(&buf, ds); err != nil {
		t.Fatal(err)
	}
	parsed, err := ReadDecisions(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parsed, ds) {
		t.Fatalf("parsed log %+v, want Decisions' %+v", parsed, ds)
	}

	nonFinite := NewProvenanceLog()
	nonFinite.Record(welch)
	nonFinite.Record(MergeDecision{Phase: "join", Trace: -1, Case: 3, Test: "one-sample", Threshold: 0.2, T: math.Inf(-1), DF: 9})
	nonFinite.Record(MergeDecision{Phase: "join", Trace: -1, Case: 2, Test: "welch", Threshold: 0.2, T: math.Inf(1), DF: 3})
	nonFinite.Record(MergeDecision{Phase: "join", Trace: -1, Case: 2, Test: "welch", Threshold: 0.2, T: math.NaN(), DF: 4})
	nonFinite.Record(MergeDecision{Phase: "join", Trace: -1, Test: "non-finite",
		A: MomentsRecord{State: 3, N: 2, Sum: math.NaN(), SumSq: math.Inf(1)}})
	ds = nonFinite.Decisions()
	if ds[1].Stat != 0 || ds[2].Stat != 0 || !math.IsNaN(ds[3].Stat) || !math.IsNaN(ds[4].A.Mean) {
		t.Fatalf("non-finite derivations: %+v", ds)
	}
	var first, second bytes.Buffer
	if err := WriteDecisions(&first, ds); err != nil {
		t.Fatal(err)
	}
	parsed, err = ReadDecisions(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteDecisions(&second, parsed); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatalf("re-encoded log moved:\nfirst  %s\nsecond %s", first.String(), second.String())
	}
	if !strings.Contains(first.String(), `"t":"-Inf"`) || !strings.Contains(first.String(), `"stat":"NaN"`) {
		t.Fatalf("non-finite values not encoded as strings:\n%s", first.String())
	}
}

func TestContextPlumbing(t *testing.T) {
	ctx := context.Background()
	if TracerFrom(ctx) != nil || RegistryFrom(ctx) != nil || ProvenanceFrom(ctx) != nil {
		t.Fatal("empty context must carry nothing")
	}
	tr, reg, log := NewTracer(nil), NewRegistry(), NewProvenanceLog()
	ctx = WithTracer(ctx, tr)
	ctx = WithRegistry(ctx, reg)
	ctx = WithProvenance(ctx, log)
	if TracerFrom(ctx) != tr || RegistryFrom(ctx) != reg || ProvenanceFrom(ctx) != log {
		t.Fatal("context round trip failed")
	}
}

func TestCLILifecycle(t *testing.T) {
	dir := t.TempDir()
	cli := &CLI{
		TracePath:      filepath.Join(dir, "spans.ndjson"),
		MetricsPath:    filepath.Join(dir, "metrics.prom"),
		ProvenancePath: filepath.Join(dir, "prov.ndjson"),
	}
	ctx, err := cli.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	_, s := Start(ctx, "stage")
	s.End()
	RegistryFrom(ctx).Counter("n_total").Inc()
	ProvenanceFrom(ctx).Record(MergeDecision{Phase: "simplify", Test: "epsilon", Accept: true})
	if cli.reg == nil {
		t.Fatal("no registry with -metrics on")
	}

	var summary bytes.Buffer
	if err := cli.Finish(&summary); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(summary.String(), "stage") {
		t.Fatalf("summary missing the span:\n%s", summary.String())
	}
	for _, p := range []string{cli.TracePath, cli.MetricsPath, cli.ProvenancePath} {
		st, err := os.Stat(p)
		if err != nil || st.Size() == 0 {
			t.Fatalf("%s missing or empty (err=%v)", p, err)
		}
	}

	var nilCLI *CLI
	if _, err := nilCLI.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := nilCLI.Finish(nil); err != nil {
		t.Fatal(err)
	}
}

func TestCLIBindFlags(t *testing.T) {
	var cli CLI
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	cli.BindFlags(fs, true)
	if err := fs.Parse([]string{"-trace", "t", "-metrics", "m", "-provenance", "p",
		"-cpuprofile", "c", "-memprofile", "h"}); err != nil {
		t.Fatal(err)
	}
	if cli.TracePath != "t" || cli.MetricsPath != "m" || cli.ProvenancePath != "p" ||
		cli.CPUProfilePath != "c" || cli.MemProfilePath != "h" {
		t.Fatalf("flags not bound: %+v", cli)
	}
	fs2 := flag.NewFlagSet("y", flag.ContinueOnError)
	fs2.SetOutput(new(bytes.Buffer))
	var cli2 CLI
	cli2.BindFlags(fs2, false)
	if err := fs2.Parse([]string{"-provenance", "p"}); err == nil {
		t.Fatal("-provenance must be absent when withProvenance=false")
	}
}

// TestDecisionsRoundTripNonFinite pins the encoding of non-finite
// statistics: a constant-power state tested against a different one
// gives t = ±Inf, a poisoned trace NaN moments. encoding/json rejects
// both as numbers, so they travel as strings and read back as the same
// values; finite decisions keep the plain encoding/json form.
func TestDecisionsRoundTripNonFinite(t *testing.T) {
	in := []MergeDecision{
		{Phase: "simplify", Trace: 0,
			A:    MomentsRecord{State: 1, N: 5, Sum: 5, SumSq: 5, Mean: 1, Std: 0},
			B:    MomentsRecord{State: 2, N: 1, Sum: 3.5, SumSq: 12.25, Mean: 3.5},
			Case: 3, Test: "one-sample", Stat: 0, Threshold: 0.05, T: math.Inf(-1)},
		{Seq: 1, Phase: "join", Trace: -1, Case: 2, Test: "welch", Stat: 0, Threshold: 0.05, T: math.Inf(1)},
		{Seq: 2, Phase: "join", Trace: -1, Test: "non-finite",
			A:    MomentsRecord{State: 3, N: 2, Sum: math.NaN(), SumSq: math.Inf(1), Mean: math.NaN(), Std: math.NaN()},
			Stat: math.NaN(), Threshold: math.Inf(1)},
	}
	var buf bytes.Buffer
	if err := WriteDecisions(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadDecisions(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%+v", out), fmt.Sprintf("%+v", in); got != want {
		t.Fatalf("round trip:\ngot  %s\nwant %s", got, want)
	}
	if !strings.Contains(buf.String(), `"t":"-Inf"`) || !strings.Contains(buf.String(), `"stat":"NaN"`) {
		t.Fatalf("non-finite values not encoded as strings:\n%s", buf.String())
	}

	finite := MergeDecision{Seq: 7, Phase: "join", Trace: -1,
		A:    MomentsRecord{State: 1, N: 2, Sum: 1e-7, SumSq: 1e22, Mean: 0.5, Std: 0.25},
		Case: 1, Test: "epsilon", Stat: 0.01, Threshold: 0.05, Accept: true}
	buf.Reset()
	if err := WriteDecisions(&buf, []MergeDecision{finite}); err != nil {
		t.Fatal(err)
	}
	const want = `{"seq":7,"phase":"join","trace":-1,"a":{"state":1,"n":2,"sum":1e-7,"sumsq":1e+22,"mean":0.5,"std":0.25},` +
		`"b":{"state":0,"n":0,"sum":0,"sumsq":0,"mean":0,"std":0},"case":1,"test":"epsilon","stat":0.01,"threshold":0.05,"accept":true}` + "\n"
	if buf.String() != want {
		t.Fatalf("finite decision encoding moved:\ngot  %s\nwant %s", buf.String(), want)
	}
}

// TestRegistryFuncInstruments pins func-backed instruments: the value
// is read at export time, in both export forms, and may take locks of
// its own while the registry is being read.
func TestRegistryFuncInstruments(t *testing.T) {
	reg := NewRegistry()
	var n int64
	reg.CounterFunc("owned_total", func() int64 { return n })
	reg.GaugeFunc("owned_open", func() float64 {
		reg.Counter("touched_total") // re-entering the registry must not deadlock
		return float64(n) / 2
	})
	n = 42
	s := reg.Snapshot()
	if s.Counters["owned_total"] != 42 || s.Gauges["owned_open"] != 21 {
		t.Fatalf("snapshot = %v / %v", s.Counters, s.Gauges)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# TYPE owned_total counter\nowned_total 42\n", "# TYPE owned_open gauge\nowned_open 21\n"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("prometheus exposition lacks %q:\n%s", want, buf.String())
		}
	}
	var nilReg *Registry
	nilReg.CounterFunc("x", func() int64 { return 1 })
	nilReg.GaugeFunc("y", func() float64 { return 1 })
}
