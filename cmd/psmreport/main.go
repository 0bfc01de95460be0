// Command psmreport regenerates the paper's evaluation tables and
// aggregates flight-recorder dumps.
//
// Usage:
//
//	psmreport -table 1
//	psmreport -table 2 [-long] [-scale 0.1] [-ip AES]
//	psmreport -table 3 [-scale 0.1] [-ip Camellia]
//	psmreport flight [-top 20] [dump.ndjson]
//
// scale < 1 shrinks the testset lengths proportionally for quick runs;
// the paper's numbers use the full lengths (scale = 1). The flight
// subcommand aggregates a flight-recorder dump (GET /debug/flight, or
// psmd's SIGQUIT/crash output) into a per-stage self-time tree. The
// merge-provenance audit log of a trace set comes from
// `psmgen -provenance`.
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"psmkit/internal/experiment"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "flight" {
		if err := runFlight(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "psmreport:", err)
			os.Exit(1)
		}
		return
	}
	table := flag.Int("table", 0, "table to regenerate: 1, 2, 3 (paper), 4 (hierarchical ext.), 5 (baselines ext.)")
	long := flag.Bool("long", false, "table 2: use the long-TS testset")
	scale := flag.Float64("scale", 1.0, "testset length scale factor (0 < s <= 1)")
	ipName := flag.String("ip", "", "restrict to one IP (RAM, MultSum, AES, Camellia)")
	flag.Parse()

	if err := run(*table, *long, *scale, *ipName); err != nil {
		fmt.Fprintln(os.Stderr, "psmreport:", err)
		os.Exit(1)
	}
}

func run(table int, long bool, scale float64, ipName string) error {
	cases := experiment.Cases()
	if ipName != "" {
		c, err := experiment.CaseByName(ipName)
		if err != nil {
			return err
		}
		cases = []experiment.IPCase{c}
	}
	pol := experiment.DefaultPolicies()
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	defer w.Flush()

	switch table {
	case 1:
		fmt.Fprintln(w, "IP\tLines\tPIs\tPOs\tElab time (s)\tMemory elements")
		for _, r := range experiment.TableI() {
			if ipName != "" && r.IP != ipName {
				continue
			}
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.6f\t%d\n",
				r.IP, r.Lines, r.PIs, r.POs, r.ElabSecs, r.MemElems)
		}
		return nil

	case 2:
		fmt.Fprintln(w, "IP\tTS\tPX (s)\tPSMs gen. (s)\tStates\tTrans.\tMRE")
		for _, c := range cases {
			r, err := experiment.TableIIFor(c, long, scale, pol)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%s\t%d\t%.2f\t%.3f\t%d\t%d\t%.2f%%\n",
				r.IP, r.TS, r.PXSecs, r.GenSecs, r.States, r.Trans, 100*r.MRE)
			w.Flush()
		}
		return nil

	case 3:
		fmt.Fprintln(w, "IP\tIP sim (s)\tIP+PSMs (s)\tOverhead\tMRE\tWSP\tPX ref (s)\tSpeedup vs PX")
		for _, c := range cases {
			r, err := experiment.TableIIIFor(c, scale, pol)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%s\t%.2f\t%.2f\t%.1f%%\t%.2f%%\t%.0f%%\t%.2f\t%.1fx\n",
				r.IP, r.IPSimSecs, r.CoSimSecs, 100*r.Overhead, 100*r.MRE, 100*r.WSP, r.PXSecs, r.Speedup)
			w.Flush()
		}
		return nil

	case 4:
		// Extension (the paper's Section VII future work): hierarchical
		// PSMs on Camellia, flat vs per-subcomponent.
		row, err := experiment.HierarchicalCamellia(scale, pol)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "model\tstates\tgen (s)\tMRE (cross-validation)")
		fmt.Fprintf(w, "flat PI/PO PSM\t%d\t%.3f\t%.2f%%\n", row.FlatStates, row.FlatGenSecs, 100*row.FlatMRE)
		fmt.Fprintf(w, "hierarchical PSMs (%v)\t%d\t%.3f\t%.2f%%\n", row.Groups, row.HierStates, row.HierGenSecs, 100*row.HierMRE)
		return nil

	case 5:
		// Extension: stateless baselines vs the PSM (what does the mined
		// temporal structure buy?).
		fmt.Fprintln(w, "IP\tconstant MRE\tglobal-regression MRE\tPSM MRE")
		for _, c := range cases {
			r, err := experiment.BaselinesFor(c, scale, pol)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%s\t%.2f%%\t%.2f%%\t%.2f%%\n",
				r.IP, 100*r.ConstantMRE, 100*r.RegressionMRE, 100*r.PSMMRE)
			w.Flush()
		}
		return nil

	default:
		return fmt.Errorf("pick -table 1, 2, 3, 4 (hierarchical) or 5 (baselines)")
	}
}
