// Command psmgen runs the automatic PSM generation flow of the paper on a
// set of training traces: assertion mining, the XU-automaton PSMGenerator,
// simplify, join and the Hamming-distance calibration. It writes a binary
// model file for cmd/psmsim plus optional Graphviz and JSON renderings.
//
// Usage:
//
//	psmgen -func a.func.csv,b.func.csv -power a.power.csv,b.power.csv \
//	       -inputs en,we,addr,wdata -out model.psm [-dot model.dot] [-json model.json] [-j N]
//
// Every functional trace needs its power trace in the same position; the
// -inputs list names the primary-input signals (used by the calibration
// regression). -j bounds the worker goroutines of the parallel pipeline
// (default: all processors); the generated model is bit-identical for
// every -j value, so the flag only changes wall time.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"psmkit/internal/check"
	"psmkit/internal/hmm"
	"psmkit/internal/mining"
	"psmkit/internal/obs"
	"psmkit/internal/pipeline"
	"psmkit/internal/powersim"
	"psmkit/internal/psm"
	"psmkit/internal/trace"
)

func main() {
	funcs := flag.String("func", "", "comma-separated functional trace CSVs")
	powers := flag.String("power", "", "comma-separated power trace CSVs (same order)")
	inputs := flag.String("inputs", "", "comma-separated primary-input signal names")
	out := flag.String("out", "model.psm", "output model file")
	dot := flag.String("dot", "", "optional Graphviz output")
	jsonOut := flag.String("json", "", "optional JSON summary output")
	minSupport := flag.Float64("min-support", mining.DefaultConfig().MinSupport, "miner: minimum atomic-proposition support")
	minRun := flag.Float64("min-run", mining.DefaultConfig().MinRunLength, "miner: minimum average run length for wide atoms")
	alpha := flag.Float64("alpha", psm.DefaultMergePolicy().Alpha, "merge: t-test significance level")
	epsilon := flag.Float64("epsilon", psm.DefaultMergePolicy().Epsilon, "merge: next-state mean tolerance")
	maxCV := flag.Float64("max-cv", psm.DefaultCalibrationPolicy().MaxCV, "calibrate: CV threshold for data-dependent states")
	minR := flag.Float64("min-r", psm.DefaultCalibrationPolicy().MinR, "calibrate: minimum |Pearson r|")
	doCheck := flag.Bool("check", true, "verify chains, model and HMM against the paper invariants before writing")
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "worker goroutines for the parallel pipeline (1 = sequential; output is identical for any value)")
	var cli obs.CLI
	cli.BindFlags(flag.CommandLine, true)
	flag.Parse()

	if err := run(*funcs, *powers, *inputs, *out, *dot, *jsonOut,
		mining.Config{MinSupport: *minSupport, MinRunLength: *minRun},
		psm.MergePolicy{Epsilon: *epsilon, Alpha: *alpha, EquivalenceMargin: psm.DefaultMergePolicy().EquivalenceMargin},
		psm.CalibrationPolicy{MaxCV: *maxCV, MinR: *minR},
		*doCheck, *jobs, &cli,
	); err != nil {
		fmt.Fprintln(os.Stderr, "psmgen:", err)
		os.Exit(1)
	}
}

// run opens the observability sinks (nil cli = all off), builds and
// writes the model, and flushes the sinks on success and failure alike
// — an aborted run still leaves usable profiles and span logs.
func run(funcs, powers, inputs, out, dot, jsonOut string,
	mcfg mining.Config, merge psm.MergePolicy, cal psm.CalibrationPolicy, doCheck bool, jobs int, cli *obs.CLI) error {

	ctx, err := cli.Start(context.Background())
	if err != nil {
		return err
	}
	runErr := build(ctx, funcs, powers, inputs, out, dot, jsonOut, mcfg, merge, cal, doCheck, jobs)
	var summary io.Writer
	if cli != nil && cli.TracePath != "" {
		summary = os.Stderr
	}
	if err := cli.Finish(summary); err != nil && runErr == nil {
		runErr = err
	}
	return runErr
}

// build is the instrumented flow: read → mine → generate/simplify →
// join → calibrate → check → write, every stage under a span.
func build(ctx context.Context, funcs, powers, inputs, out, dot, jsonOut string,
	mcfg mining.Config, merge psm.MergePolicy, cal psm.CalibrationPolicy, doCheck bool, jobs int) error {

	funcFiles := split(funcs)
	powerFiles := split(powers)
	if len(funcFiles) == 0 || len(funcFiles) != len(powerFiles) {
		return fmt.Errorf("need matching -func and -power lists (got %d and %d)",
			len(funcFiles), len(powerFiles))
	}

	ctx, root := obs.Start(ctx, "psmgen", obs.KV("traces", len(funcFiles)))
	defer root.End()

	// Trace pairs parse independently; fan the I/O out too.
	_, readSpan := obs.Start(ctx, "read")
	fts := make([]*trace.Functional, len(funcFiles))
	pws := make([]*trace.Power, len(funcFiles))
	err := pipeline.ForEach(ctx, jobs, len(funcFiles), func(_ context.Context, i int) error {
		ft, err := readFunc(funcFiles[i])
		if err != nil {
			return err
		}
		pw, err := readPower(powerFiles[i])
		if err != nil {
			return err
		}
		if pw.Len() < ft.Len() {
			return fmt.Errorf("%s: power trace shorter than functional trace", powerFiles[i])
		}
		fts[i], pws[i] = ft, pw
		return nil
	})
	readSpan.End()
	if err != nil {
		return err
	}
	obs.RegistryFrom(ctx).Counter("psmgen_traces_read_total").Add(int64(len(funcFiles)))

	cfg := pipeline.Config{Workers: jobs, Mining: mcfg, Merge: merge, Calibration: cal}
	chains, err := pipeline.BuildChains(ctx, fts, pws, cfg)
	if err != nil {
		return err
	}
	model := psm.JoinCtx(ctx, chains, merge)

	var inputCols []int
	for _, name := range split(inputs) {
		col := fts[0].Column(name)
		if col < 0 {
			return fmt.Errorf("input signal %q not in trace schema", name)
		}
		inputCols = append(inputCols, col)
	}
	calibrated := 0
	if len(inputCols) > 0 {
		calibrated = psm.CalibrateCtx(ctx, model, fts, pws, inputCols, cal)
	}

	if doCheck {
		_, checkSpan := obs.Start(ctx, "check")
		rep := &check.Report{}
		for _, c := range chains {
			rep.Merge(check.CheckChain(c))
		}
		opts := check.DefaultOptions()
		opts.MinR = cal.MinR
		doc := check.FromPSM(model, "pipeline")
		doc.AttachHMM(hmm.New(model))
		rep.Merge(check.Run(doc, opts))
		checkSpan.End()
		for _, f := range rep.Findings {
			if f.Severity >= check.Warn {
				fmt.Fprintln(os.Stderr, "psmgen: check:", f)
			}
		}
		if rep.HasErrors() {
			return fmt.Errorf("generated model failed verification (%d errors); rerun with -check=false to emit it anyway",
				rep.Count(check.Error))
		}
	}

	_, writeSpan := obs.Start(ctx, "write")
	if err := writeTo(out, func(w io.Writer) error { return psm.Save(w, model) }); err != nil {
		writeSpan.End()
		return err
	}
	if dot != "" {
		if err := writeTo(dot, func(w io.Writer) error { return model.WriteDOT(w, "psm") }); err != nil {
			writeSpan.End()
			return err
		}
	}
	if jsonOut != "" {
		if err := writeTo(jsonOut, model.WriteJSON); err != nil {
			writeSpan.End()
			return err
		}
	}
	writeSpan.End()

	// Self-validation on the training set, like the paper's Table II MRE.
	_, selfSpan := obs.Start(ctx, "selfcheck")
	var errSum float64
	var n int
	for i, ft := range fts {
		res := powersim.Run(model, ft, inputCols, pws[i], powersim.DefaultConfig())
		errSum += res.MRE * float64(res.Instants)
		n += res.Instants
	}
	selfSpan.End()
	mre := 0.0
	if n > 0 {
		mre = 100 * errSum / float64(n)
	}
	fmt.Printf("model: %d states, %d transitions, %d calibrated; training MRE %.2f%%\n",
		model.NumStates(), model.NumTransitions(), calibrated, mre)
	fmt.Printf("wrote %s\n", out)
	return nil
}

func split(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func readFunc(path string) (*trace.Functional, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".vcd") {
		return trace.ReadVCD(f)
	}
	return trace.ReadFunctionalCSV(f)
}

func readPower(path string) (*trace.Power, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadPowerCSV(f)
}

func writeTo(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
