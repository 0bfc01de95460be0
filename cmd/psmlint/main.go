// Command psmlint is the two-layer static analyzer of the PSM flow.
//
// Layer 1 — model verification: check generated PSM/HMM artifacts against
// the paper's invariants (mutually exclusive propositions, sound power
// attributes, reachability, calibration validity, row-stochastic HMM
// matrices — package internal/check):
//
//	psmlint model [-min-r 0.7] [-all] model.psm other.json ...
//
// It accepts the binary .psm files written by psmgen (the embedded
// dictionary and derived HMM are verified too) and JSON model documents
// in the schema of internal/check (used for golden tests and external
// tooling).
//
// Layer 2 — code linting: a stdlib-only multi-pass go/ast+go/types
// driver with cross-package taint facts (package internal/lint). Its
// four rules cover float equality, unguarded float division, dropped
// errors, and map-iteration order reaching serialized output:
//
//	psmlint code [packages]    (default ./...)
//
// Exit codes: 0 clean, 1 findings (model: Error severity; code: any),
// 2 usage or load failure.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"psmkit/internal/check"
	"psmkit/internal/hmm"
	"psmkit/internal/lint"
	"psmkit/internal/psm"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, `usage:
  psmlint model [-min-r r] [-tol t] [-all] <model.psm|model.json>...
  psmlint code [packages...]`)
	return 2
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		return usage(stderr)
	}
	switch args[0] {
	case "model":
		return runModel(args[1:], stdout, stderr)
	case "code":
		return runCode(args[1:], stdout, stderr)
	default:
		fmt.Fprintf(stderr, "psmlint: unknown subcommand %q\n", args[0])
		return usage(stderr)
	}
}

func runModel(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("psmlint model", flag.ContinueOnError)
	fs.SetOutput(stderr)
	minR := fs.Float64("min-r", 0, "calibration correlation threshold to enforce (0 disables)")
	tol := fs.Float64("tol", 0, "row-stochasticity tolerance (0 = default 1e-9)")
	all := fs.Bool("all", false, "also print info-severity findings")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	files := fs.Args()
	if len(files) == 0 {
		fmt.Fprintln(stderr, "psmlint model: no model files given")
		return 2
	}
	opts := check.DefaultOptions()
	opts.MinR = *minR
	opts.Tol = *tol

	exit := 0
	for _, path := range files {
		doc, err := loadDoc(path)
		if err != nil {
			fmt.Fprintf(stderr, "psmlint: %v\n", err)
			return 2
		}
		rep := check.Run(doc, opts)
		for _, f := range rep.Findings {
			if f.Severity == check.Info && !*all {
				continue
			}
			fmt.Fprintf(stdout, "%s: %s\n", path, f)
		}
		errs, warns := rep.Count(check.Error), rep.Count(check.Warn)
		switch {
		case errs > 0:
			fmt.Fprintf(stdout, "%s: FAIL (%d errors, %d warnings)\n", path, errs, warns)
			exit = 1
		case warns > 0:
			fmt.Fprintf(stdout, "%s: ok (%d warnings)\n", path, warns)
		default:
			fmt.Fprintf(stdout, "%s: ok\n", path)
		}
	}
	return exit
}

// loadDoc reads a model artifact: JSON documents by extension, binary
// psmgen models otherwise (their HMM is derived and attached so the
// stochasticity rules run on exactly what psmsim would simulate).
func loadDoc(path string) (*check.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".json") {
		return check.ReadJSON(f, path)
	}
	m, err := psm.Load(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	doc := check.FromPSM(m, path)
	if len(m.States) > 0 {
		doc.AttachHMM(hmm.New(m))
	}
	return doc, nil
}

func runCode(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("psmlint code", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	findings, err := lint.Run(".", fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "psmlint: %v\n", err)
		return 2
	}
	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stdout, "psmlint: %d findings\n", len(findings))
		return 1
	}
	return 0
}
