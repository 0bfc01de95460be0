package psmkit

import (
	"context"
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"psmkit/internal/experiment"
	"psmkit/internal/obs"
	"psmkit/internal/pipeline"
	"psmkit/internal/testbench"
)

// TestObsOverheadGate is the `make bench-obs` gate: the observability
// layer must be free when off and near-free when on. It times the
// BenchmarkParallelPSMGeneration workload (RAM short-TS through the
// parallel pipeline) with a plain context — the nil fast path every
// production call takes when no -trace/-metrics/-provenance flag is set
// — against two instrumented runs, and requires each instrumented
// min-of-N wall clock within 2% of the plain one:
//
//   - the opt-in arm: span events to io.Discard, live registry, live
//     provenance log — what -trace/-metrics/-provenance costs;
//   - the always-on arm: psmd's standing diagnostics — the zero tracer
//     (no event writer, no span records) feeding the flight-recorder
//     ring and the windowed span histogram, plus a live registry — what
//     every psmd request pays whether or not anyone is watching.
//
// The comparison bounds the disabled path from above: whatever the nil
// checks cost is included in all arms.
//
// Wall-clock gates are noisy by nature, so the test only runs under
// BENCH_OBS=1 (CI: `make bench-obs`), interleaves the arms and takes
// the minimum over several rounds to shed scheduler and cache noise.
func TestObsOverheadGate(t *testing.T) {
	if os.Getenv("BENCH_OBS") == "" {
		t.Skip("set BENCH_OBS=1 (or run `make bench-obs`) to run the overhead gate")
	}
	c, err := experiment.CaseByName("RAM")
	if err != nil {
		t.Fatal(err)
	}
	ts, err := experiment.GenerateTraces(c, c.ShortTS, experiment.Pieces,
		testbench.Options{Seed: c.Seed})
	if err != nil {
		t.Fatal(err)
	}
	cfg := pipeline.DefaultConfig()

	build := func(ctx context.Context) time.Duration {
		// Collect outside the timed region: each build leaves megabytes
		// of model garbage, and letting arm k's debt be collected during
		// arm k+1's run bills one arm's allocations to the next.
		runtime.GC()
		start := time.Now()
		if _, err := pipeline.BuildModel(ctx, ts.FTs, ts.PWs, ts.InputCols, cfg); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	plainArm := func() time.Duration { return build(context.Background()) }
	obsArm := func() time.Duration {
		// Fresh sinks per round: a shared provenance log would grow
		// round over round and bill earlier rounds' garbage to later ones.
		ctx := obs.WithTracer(context.Background(), obs.NewTracer(io.Discard))
		ctx = obs.WithRegistry(ctx, obs.NewRegistry())
		ctx = obs.WithProvenance(ctx, obs.NewProvenanceLog())
		return build(ctx)
	}
	alwaysOnArm := func() time.Duration {
		// psmd's standing configuration: the zero tracer — no event
		// writer, no span records — but every span lands in the flight
		// ring and the windowed latency histogram.
		tr := new(obs.Tracer)
		tr.SetFlight(obs.NewFlight(obs.DefaultFlightEntries))
		reg := obs.NewRegistry()
		tr.SetSpanWindow(reg.Window("span_ms_window",
			obs.ExponentialBuckets(0.01, 2, 16),
			obs.DefaultWindowInterval, obs.DefaultWindowSlots))
		ctx := obs.WithTracer(context.Background(), tr)
		ctx = obs.WithRegistry(ctx, reg)
		return build(ctx)
	}

	plainArm() // warm every arm before timing
	obsArm()
	alwaysOnArm()

	// Noise discipline: interference only ever adds time, so each arm's
	// floor over interleaved rounds estimates its true cost, and the
	// floors only ratchet down — a truly cheap arm eventually posts a
	// clean sample even on a busy machine, while a genuine regression
	// keeps the instrumented floor above the plain floor no matter how
	// many rounds run. Sampling is adaptive: stop once every arm's floor
	// is inside its budget, fail only if maxRounds never got there.
	//
	// The opt-in arm's budget relaxes on a single-core machine: its
	// allocation debt (span events, provenance records) is normally
	// collected by the concurrent GC on a spare core, but with
	// GOMAXPROCS=1 the same collection serializes into the mutator's
	// wall clock — an artifact of where the GC runs, not of what the
	// instrumentation costs. The always-on arm allocates almost nothing
	// (preallocated ring slots and histogram buckets), so its 2% budget
	// holds on any core count.
	const (
		budget    = 0.02
		minRounds = 7
		maxRounds = 120
	)
	budgetObs := budget
	if runtime.GOMAXPROCS(0) == 1 {
		budgetObs = 0.25
	}
	minPlain := time.Duration(1 << 62)
	minObs, minAlways := minPlain, minPlain
	over := func(m time.Duration) float64 { return float64(m-minPlain) / float64(minPlain) }
	rounds := 0
	for rounds < maxRounds {
		if d := plainArm(); d < minPlain {
			minPlain = d
		}
		if d := obsArm(); d < minObs {
			minObs = d
		}
		if d := alwaysOnArm(); d < minAlways {
			minAlways = d
		}
		rounds++
		if rounds >= minRounds && over(minObs) <= budgetObs && over(minAlways) <= budget {
			break
		}
	}

	for _, arm := range []struct {
		name   string
		min    time.Duration
		budget float64
	}{
		{"instrumented", minObs, budgetObs},
		{"always-on", minAlways, budget},
	} {
		overhead := over(arm.min)
		t.Logf("plain %v, %s %v, overhead %+.2f%% (%d rounds, budget %.0f%%)",
			minPlain, arm.name, arm.min, 100*overhead, rounds, 100*arm.budget)
		if overhead > arm.budget {
			t.Fatalf("%s generation is %.2f%% slower than plain (min over %d rounds: %v vs %v); budget is %.0f%%",
				arm.name, 100*overhead, rounds, arm.min, minPlain, 100*arm.budget)
		}
	}
}
