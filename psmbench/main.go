// Command psmbench is the repository's end-to-end and per-layer
// benchmark. One run measures one workload for a fixed time and prints
// every metric with its unit, then, as its last line, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The psmd workloads (ingest, refresh, sharded) drive an in-process
// serve.Server over loopback HTTP with traces generated in set-up from
// the IP models; batch runs the paper flow. --trace 0 reports the
// end-to-end metrics; --trace 1 runs the workload untraced, then replays
// the same inputs through the layers' public functions with the
// benchmark's own timers around each call, and reports the per-layer
// metrics. Run it from the repository root:
//
//	bash psmbench/run.sh --workload refresh --seed 1 --seconds 5 --trace 0
//
// --describe prints the self-description (workloads, metric mapping,
// machine) instead of running.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// HoldOutSeed is the seed no change is tuned against: a claimed gain
// must also hold with --seed holdout.
const HoldOutSeed = 20160314

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool

	// scale shrinks every input size (the self-test runs at tiny scale);
	// 1 is the benchmark proper.
	scale float64
	// wrap sits between the listener and psmd's handler; alter rewrites
	// the served model before the check. Both are self-test fault hooks.
	wrap  func(http.Handler) http.Handler
	alter func([]byte) []byte
}

// scaled shrinks an input size by the scale, never below floor.
func (o *options) scaled(n, floor int) int {
	if o.scale <= 0 || o.scale >= 1 {
		return n
	}
	return max(int(float64(n)*o.scale), floor)
}

// result is the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates a run's outcome.
type report struct {
	out       io.Writer
	attempted int64
	failed    int64
	errs      []string
	values    map[string]float64
}

func newReport(out io.Writer) *report {
	return &report{out: out, values: map[string]float64{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) fail(format string, args ...interface{}) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// finish prints every metric line and the final JSON line, keeping only
// the metrics of the run's kind in the JSON object.
func (r *report) finish(defs []metricDef) result {
	res := result{Correct: len(r.errs) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, e := range r.errs {
		fmt.Fprintln(r.out, "check failed:", e)
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Correct = false
	}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(r.out, "metric %s missing\n", d.Name)
			res.Correct = false
			continue
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	for _, name := range sortedNames(r.values) {
		fmt.Fprintf(r.out, "%-32s %16.6g\n", name, r.values[name])
	}
	return res
}

func sortedNames(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// harnessMap names where each retired-later harness's figures live now.
const harnessMap = "harness map: BENCH_ingest -> stream.*_ns_per_rec on ingest; BENCH_shard (scripts/loadgen) -> sharded; BENCH_power -> power.estimate_ns_per_cycle on batch; BENCH_join -> pipeline.join_s on batch"

// machine describes the host a run measured.
func machine() string {
	return fmt.Sprintf("machine: GOMAXPROCS=%d nproc=%d go=%s %s/%s", runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// run executes one benchmark run and returns its result line.
func run(ctx context.Context, o *options, out io.Writer) (result, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintln(out, machine())
	fmt.Fprintln(out, harnessMap)
	fmt.Fprintf(out, "workload %s (%s): %s; seed %d, %gs, trace %v\n", w.Name, w.Loop, w.Why, o.seed, o.seconds, o.trace)
	rep := newReport(out)
	if w.Name == "batch" {
		err = runBatch(ctx, w, o, rep)
	} else {
		err = runServer(ctx, w, o, rep)
	}
	if err != nil {
		return result{}, err
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	return rep.finish(defs), nil
}

// description is the --describe document.
type description struct {
	Machine     string         `json:"machine"`
	HoldOutSeed int64          `json:"hold_out_seed"`
	HarnessMap  string         `json:"harness_map"`
	Workloads   []*workloadDef `json:"workloads"`
	EndToEnd    []metricDef    `json:"end_to_end"`
	PerLayer    []metricDef    `json:"per_layer"`
}

func describe(out io.Writer) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(description{
		Machine: machine(), HoldOutSeed: HoldOutSeed, HarnessMap: harnessMap,
		Workloads: workloads, EndToEnd: endToEnd, PerLayer: perLayer,
	})
}

func parseSeed(s string) (int64, error) {
	if strings.EqualFold(s, "holdout") {
		return HoldOutSeed, nil
	}
	return strconv.ParseInt(s, 10, 64)
}

func main() {
	workload := flag.String("workload", "", "workload: ingest, refresh, sharded or batch")
	seed := flag.String("seed", "1", "input seed (an integer, or holdout)")
	seconds := flag.Float64("seconds", 5, "length of the timed window in seconds")
	traceFlag := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	desc := flag.Bool("describe", false, "print the benchmark's self-description and exit")
	flag.Parse()
	if *desc {
		if err := describe(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "psmbench:", err)
			os.Exit(1)
		}
		return
	}
	s, err := parseSeed(*seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "psmbench: bad --seed:", err)
		os.Exit(2)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "psmbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o := &options{workload: *workload, seed: s, seconds: *seconds, trace: *traceFlag == 1, scale: 1}
	res, err := run(context.Background(), o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "psmbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "psmbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
