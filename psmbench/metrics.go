package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
)

// metricDef names one reported metric. Moves and On say which end-to-end
// metric a per-layer metric should move, and on which workload.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Means  string `json:"means"`
	Moves  string `json:"moves,omitempty"`
	On     string `json:"on,omitempty"`
}

// endToEnd are the metrics an untraced run reports on every workload.
// Each workload maps the throughput and latency names onto its own unit
// of work; workloadDef.Maps spells the mapping out.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Means: "median of five set-ups: trace generation from the IP models, server boot and warm-up"},
	{Name: "throughput_rec_per_s", Unit: "rec/s", Better: "higher", Means: "records of the workload's unit of work completed per second, as the workload's statistic over the window states"},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower", Means: "p90 latency of the workload's request; failures count as misses"},
	{Name: "cosim_rec_per_s", Unit: "rec/s", Better: "higher", Means: "IP simulation + powersim.Simulator.Step in lock-step on held-out stall-injected validation stimulus (Table III IP+PSMs), the rate of nine 256-cycle turns in ten"},
	{Name: "px_rec_per_s", Unit: "rec/s", Better: "higher", Means: "IP simulation + reference power.Estimator on the same stimulus, interleaved with the co-simulation (Table III PX), the rate of nine 256-cycle turns in ten"},
	{Name: "model_mre_pct", Unit: "%", Better: "lower", Means: "mean relative error of the final model on the validation stimulus"},
	{Name: "live_heap_mb", Unit: "MiB", Better: "lower", Means: "live heap after a full collection at the end of the timed window: the state the run holds"},
}

// The end-to-end metrics each per-layer metric should move.
const (
	tput     = "throughput_rec_per_s"
	p90      = "latency_p90_ms"
	liveHeap = "live_heap_mb"
	cosim    = "cosim_rec_per_s"
	px       = "px_rec_per_s"
)

// perLayer are the metrics a traced run reports on every workload.
var perLayer = []metricDef{
	{Name: "stream.scan_ns_per_rec", Unit: "ns/rec", Better: "lower", Means: "Scanner.ScanRecord self time", Moves: tput + "," + p90, On: "ingest"},
	{Name: "stream.parse_ns_per_rec", Unit: "ns/rec", Better: "lower", Means: "DecodeRowArena self time", Moves: tput + "," + p90, On: "ingest"},
	{Name: "stream.reduce_ns_per_rec", Unit: "ns/rec", Better: "lower", Means: "Session.AppendBatch self time", Moves: tput + "," + p90, On: "ingest"},
	{Name: "stream.alloc_bytes_per_rec", Unit: "B/rec", Better: "lower", Means: "bytes allocated by the ingest replay per record", Moves: liveHeap, On: "ingest,refresh"},
	{Name: "stream.held_bytes_per_rec", Unit: "B/rec", Better: "lower", Means: "live heap after GC held by the engine per record", Moves: liveHeap, On: "ingest,refresh"},
	{Name: "stream.close_ms_p50", Unit: "ms", Better: "lower", Means: "Session.Close, lock wait included", Moves: p90, On: "refresh"},
	{Name: "stream.close_ms_p99", Unit: "ms", Better: "lower", Means: "Session.Close p99, lock wait included", Moves: p90, On: "refresh"},
	{Name: "stream.snapshot_ms_p50", Unit: "ms", Better: "lower", Means: "Engine.Snapshot", Moves: tput, On: "refresh"},
	{Name: "stream.snapshot_ms_p90", Unit: "ms", Better: "lower", Means: "Engine.Snapshot p90", Moves: tput + "," + p90, On: "refresh"},
	{Name: "stream.snapshot.collapse_ms", Unit: "ms", Better: "lower", Means: "median per snapshot of the collapse span Engine.Snapshot emits", Moves: tput, On: "refresh"},
	{Name: "stream.snapshot.calibrate_ms", Unit: "ms", Better: "lower", Means: "median per snapshot of the calibrate span Engine.Snapshot emits", Moves: tput, On: "refresh"},
	{Name: "stream.delta_frac", Unit: "ratio", Better: "higher", Means: "delta snapshots / all snapshots", Moves: tput, On: "refresh,sharded"},
	{Name: "stream.rebuilds", Unit: "count", Better: "lower", Means: "snapshots that rebuilt every chain", Moves: tput, On: "refresh,sharded"},
	{Name: "psm.states_pooled", Unit: "count", Better: "lower", Means: "pre-join states of the last snapshot", Moves: tput, On: "refresh,sharded"},
	{Name: "psm.states_served", Unit: "count", Better: "lower", Means: "states of the last served model", Moves: tput, On: "refresh,sharded"},
	{Name: "psm.merge_evals_per_check", Unit: "ratio", Better: "lower", Means: "psm_merge_evals_total / psm_merge_checks_total", Moves: tput, On: "refresh,sharded"},
	{Name: "check.verify_ms_p50", Unit: "ms", Better: "lower", Means: "check.VerifyPSM", Moves: tput, On: "refresh"},
	{Name: "psm.encode_ms_p50", Unit: "ms", Better: "lower", Means: "Model.WriteJSON", Moves: tput, On: "refresh"},
	{Name: "psm.model_bytes", Unit: "B", Better: "lower", Means: "JSON size of the last model", Moves: tput, On: "refresh"},
	{Name: "shard.enqueue_ns_per_rec", Unit: "ns/rec", Better: "lower", Means: "shard Session.AppendLines per record", Moves: tput + "," + p90, On: "sharded"},
	{Name: "shard.close_ms_p99", Unit: "ms", Better: "lower", Means: "shard Session.Close p99, queue wait included", Moves: p90, On: "sharded"},
	{Name: "shard.queue_depth_max", Unit: "count", Better: "lower", Means: "deepest shard queue seen after an enqueue", Moves: p90, On: "sharded"},
	{Name: "shard.shed", Unit: "count", Better: "lower", Means: "append batches shed with a SaturatedError", Moves: p90, On: "sharded"},
	{Name: "shard.skew", Unit: "ratio", Better: "lower", Means: "max / min records per shard", Moves: tput, On: "sharded"},
	{Name: "shard.snapshot_ms_p50", Unit: "ms", Better: "lower", Means: "Coordinator.Snapshot", Moves: tput, On: "sharded"},
	{Name: "mining.mine_s", Unit: "s", Better: "lower", Means: "mining.MineParallel over the build trace set", Moves: tput + "," + p90, On: "batch"},
	{Name: "psm.generate_s", Unit: "s", Better: "lower", Means: "psm.GenerateCtx summed over traces", Moves: tput + "," + p90, On: "batch"},
	{Name: "psm.simplify_s", Unit: "s", Better: "lower", Means: "psm.SimplifyCtx summed over traces", Moves: tput + "," + p90, On: "batch"},
	{Name: "pipeline.join_s", Unit: "s", Better: "lower", Means: "pipeline.TreeJoin", Moves: tput + "," + p90, On: "batch"},
	{Name: "psm.calibrate_s", Unit: "s", Better: "lower", Means: "psm.CalibrateCtx", Moves: tput + "," + p90, On: "batch"},
	{Name: "hdl.sim_ns_per_cycle", Unit: "ns", Better: "lower", Means: "hdl.Simulator.Step self time (observers excluded)", Moves: px + "," + cosim, On: "batch"},
	{Name: "power.estimate_ns_per_cycle", Unit: "ns", Better: "lower", Means: "power.Estimator observer per cycle", Moves: px, On: "batch"},
	{Name: "powersim.step_ns", Unit: "ns", Better: "lower", Means: "powersim.Simulator.Step per instant", Moves: cosim + "," + tput, On: "batch,refresh"},
	{Name: "serve.gap_ms_p50", Unit: "ms", Better: "lower", Means: "untraced HTTP upload latency minus the traced run's summed stream or shard calls for the same session", Moves: p90, On: "ingest,sharded"},
	{Name: "runtime.gc_cpu_frac", Unit: "ratio", Better: "lower", Means: "GC CPU / available CPU over the untraced timed window", Moves: tput, On: "ingest,refresh,sharded,batch"},
	{Name: "loadgen.late_ms_p99", Unit: "ms", Better: "lower", Means: "how late the load generator sent, p99", Moves: "validity of " + p90, On: "refresh"},
	{Name: "failed_frac", Unit: "ratio", Better: "lower", Means: "failed or refused operations / attempted; failures also count as misses in every latency", Moves: tput + "," + p90, On: "ingest,refresh,sharded,batch"},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower", Means: "traced replay busy time / untraced replay busy time - 1 over the same calls", Moves: "validity of the per-layer metrics", On: "ingest,refresh,sharded,batch"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs need not be sorted. Empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean is the arithmetic mean of xs. Upload latencies are bimodal (an
// upload does or does not overlap a collection), and their median jumps
// between the modes from run to run where the mean does not.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// liveHeapMB collects garbage and returns the live heap in MiB: the
// state a run holds at that moment, without the garbage of its last
// burst.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return math.NaN()
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// cpuStats reads the cumulative GC and total CPU seconds.
func cpuStats() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		total = s[1].Value.Float64()
	}
	return gc, total
}
