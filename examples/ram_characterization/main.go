// RAM characterization: the full Table II experiment for the 1 KB RAM,
// demonstrating the data-dependent calibration of Section IV — the write
// state's power is not a constant but a linear function of the input
// Hamming distance, and the automatically fitted regression recovers it.
//
//	go run ./examples/ram_characterization
package main

import (
	"fmt"
	"log"

	"psmkit/internal/experiment"
	"psmkit/internal/pipeline"
	"psmkit/internal/powersim"
	"psmkit/internal/testbench"
)

func main() {
	c, err := experiment.CaseByName("RAM")
	if err != nil {
		log.Fatal(err)
	}

	// Training: the paper's short-TS length (34130 instants).
	traces, err := experiment.GenerateTraces(c, c.ShortTS, experiment.Pieces,
		testbench.Options{Seed: c.Seed})
	if err != nil {
		log.Fatal(err)
	}

	// Compare the flow with and without calibration to show what the
	// linear regression buys on a data-dependent IP.
	withCal := experiment.DefaultPolicies()
	noCal := experiment.DefaultPolicies()
	noCal.SkipCalibration = true

	for _, cfg := range []struct {
		name string
		pol  pipeline.Config
	}{
		{"with Hamming-distance calibration", withCal},
		{"without calibration (constant μ)", noCal},
	} {
		flow, err := experiment.BuildModel(traces, cfg.pol)
		if err != nil {
			log.Fatal(err)
		}
		mre, _ := experiment.ValidateMRE(flow.Model, traces, powersim.DefaultConfig())
		calibrated := 0
		for _, s := range flow.Model.States {
			if s.Fit != nil {
				calibrated++
			}
		}
		fmt.Printf("%-36s states=%d calibrated=%d MRE=%.2f%%\n",
			cfg.name, flow.Model.NumStates(), calibrated, 100*mre)
	}

	// Cross-validate on a fresh testset (different seed — different
	// addresses, data and burst lengths).
	flow, err := experiment.BuildModel(traces, withCal)
	if err != nil {
		log.Fatal(err)
	}
	val, err := experiment.GenerateTraces(c, 50000, 1, testbench.Options{Seed: 998877})
	if err != nil {
		log.Fatal(err)
	}
	res := powersim.Run(flow.Model, val.FTs[0], val.InputCols, val.PWs[0], powersim.DefaultConfig())
	fmt.Printf("\ncross-validation on unseen stimulus: MRE=%.2f%% WSP=%.1f%% (unsynced %d of %d instants)\n",
		100*res.MRE, 100*res.WSP(), res.UnsyncedInstants, res.Instants)

	// Show the fitted write-state law.
	for _, s := range flow.Model.States {
		if s.Fit != nil && s.Power.Mean() > 2e-6 {
			fmt.Printf("\nwrite state s%d: power ≈ %.3g + %.3g × HD(inputs)  (Pearson r = %.3f)\n",
				s.ID, s.Fit.Intercept, s.Fit.Slope, s.Fit.R)
			fmt.Println("  HD   estimate (W)")
			for _, hd := range []float64{0, 8, 16, 24, 32} {
				fmt.Printf("  %2.0f   %.3e\n", hd, s.Estimate(hd))
			}
			break
		}
	}
}
