package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"psmkit/internal/mining"
	"psmkit/internal/obs"
	"psmkit/internal/pipeline"
	"psmkit/internal/psm"
	"psmkit/internal/trace"
)

// runProvenance is the `psmreport provenance` subcommand: rebuild the
// model from the given traces with the merge-provenance audit log
// attached and write the log as NDJSON — one Section IV-A mergeability
// decision per line, in the canonical order (phase, then chain, then
// decision sequence). Over the same traces it emits byte-for-byte the
// log psmd serves at GET /v1/provenance.
func runProvenance(argv []string) error {
	fs := flag.NewFlagSet("psmreport provenance", flag.ExitOnError)
	funcs := fs.String("func", "", "comma-separated functional trace CSVs")
	powers := fs.String("power", "", "comma-separated power trace CSVs (same order)")
	out := fs.String("o", "", "output file (default stdout)")
	minSupport := fs.Float64("min-support", mining.DefaultConfig().MinSupport, "miner: minimum atomic-proposition support")
	minRun := fs.Float64("min-run", mining.DefaultConfig().MinRunLength, "miner: minimum average run length for wide atoms")
	alpha := fs.Float64("alpha", psm.DefaultMergePolicy().Alpha, "merge: t-test significance level")
	epsilon := fs.Float64("epsilon", psm.DefaultMergePolicy().Epsilon, "merge: next-state mean tolerance")
	jobs := fs.Int("j", runtime.GOMAXPROCS(0), "worker goroutines (the log is identical for any value)")
	if err := fs.Parse(argv); err != nil {
		return err
	}

	funcFiles := splitList(*funcs)
	powerFiles := splitList(*powers)
	if len(funcFiles) == 0 || len(funcFiles) != len(powerFiles) {
		return fmt.Errorf("need matching -func and -power lists (got %d and %d)",
			len(funcFiles), len(powerFiles))
	}

	fts := make([]*trace.Functional, len(funcFiles))
	pws := make([]*trace.Power, len(funcFiles))
	for i := range funcFiles {
		ft, err := readFuncTrace(funcFiles[i])
		if err != nil {
			return err
		}
		pw, err := readPowerTrace(powerFiles[i])
		if err != nil {
			return err
		}
		if pw.Len() < ft.Len() {
			return fmt.Errorf("%s: power trace shorter than functional trace", powerFiles[i])
		}
		fts[i], pws[i] = ft, pw
	}

	merge := psm.MergePolicy{Epsilon: *epsilon, Alpha: *alpha, EquivalenceMargin: psm.DefaultMergePolicy().EquivalenceMargin}
	cfg := pipeline.Config{
		Workers: *jobs,
		Mining:  mining.Config{MinSupport: *minSupport, MinRunLength: *minRun},
		Merge:   merge,
	}

	log := obs.NewProvenanceLog()
	ctx := obs.WithProvenance(context.Background(), log)
	chains, err := pipeline.BuildChains(ctx, fts, pws, cfg)
	if err != nil {
		return err
	}
	psm.JoinCtx(ctx, chains, merge)

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return obs.WriteDecisions(w, log.Decisions())
}

func splitList(s string) []string {
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

func readFuncTrace(path string) (*trace.Functional, error) {
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

func readPowerTrace(path string) (*trace.Power, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadPowerCSV(f)
}
