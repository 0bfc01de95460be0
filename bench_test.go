// Package psmkit's repository-root benchmarks regenerate every table of
// the paper's evaluation (Section VI) and the ablation studies listed in
// DESIGN.md. Each benchmark reports the paper's figures of merit as
// custom metrics (states, transitions, MRE%, WSP%, overhead%), so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation; bench_output.txt in the repository root
// records a reference run, and EXPERIMENTS.md compares it against the
// paper row by row.
package psmkit

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"psmkit/internal/dpm"
	"psmkit/internal/experiment"
	"psmkit/internal/powersim"
	"psmkit/internal/psm"
	"psmkit/internal/soc"
	"psmkit/internal/testbench"
)

// BenchmarkTableI regenerates Table I (characteristics of benchmarks).
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiment.TableI()
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(float64(r.MemElems), r.IP+"_mem_elements")
			}
		}
	}
}

// benchTableII runs the Table II experiment for one IP at full scale.
func benchTableII(b *testing.B, name string, long bool) {
	c, err := experiment.CaseByName(name)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		row, err := experiment.TableIIFor(c, long, 1, experiment.DefaultPolicies())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(row.States), "states")
		b.ReportMetric(float64(row.Trans), "transitions")
		b.ReportMetric(100*row.MRE, "MRE_%")
		b.ReportMetric(row.PXSecs, "PX_s")
		b.ReportMetric(row.GenSecs, "PSM_gen_s")
	}
}

// BenchmarkTableIIShortTS regenerates the upper half of Table II: PSMs
// generated and self-validated on the functional-verification testsets.
func BenchmarkTableIIShortTS(b *testing.B) {
	for _, c := range experiment.Cases() {
		b.Run(c.Name, func(b *testing.B) { benchTableII(b, c.Name, false) })
	}
}

// BenchmarkTableIILongTS regenerates the lower half of Table II
// (500000-instant testsets).
func BenchmarkTableIILongTS(b *testing.B) {
	for _, c := range experiment.Cases() {
		b.Run(c.Name, func(b *testing.B) { benchTableII(b, c.Name, true) })
	}
}

// BenchmarkTableIII regenerates Table III: PSMs trained on short-TS,
// cross-validated on the 500000-instant long-TS, with the IP-vs-IP+PSM
// simulation-time comparison.
func BenchmarkTableIII(b *testing.B) {
	for _, c := range experiment.Cases() {
		b.Run(c.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				row, err := experiment.TableIIIFor(c, 1, experiment.DefaultPolicies())
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(row.IPSimSecs, "IP_sim_s")
				b.ReportMetric(row.CoSimSecs, "IP+PSM_s")
				b.ReportMetric(100*row.Overhead, "overhead_%")
				b.ReportMetric(100*row.MRE, "MRE_%")
				b.ReportMetric(100*row.WSP, "WSP_%")
				b.ReportMetric(row.PXSecs, "PX_ref_s")
				b.ReportMetric(row.Speedup, "speedup_vs_PX")
			}
		})
	}
}

// --- ablations (design knobs called out in DESIGN.md) -------------------------

// ablationScale keeps the ablation sweeps quick while still statistically
// meaningful (≈1/5 of the paper's testset lengths).
const ablationScale = 0.2

// BenchmarkAblationMergeAlpha sweeps the t-test significance level of the
// mergeability policy on the RAM: lower α merges more aggressively
// (fewer states, worse accuracy), higher α splits more.
func BenchmarkAblationMergeAlpha(b *testing.B) {
	c, _ := experiment.CaseByName("RAM")
	for _, alpha := range []float64{0.01, 0.05, 0.20, 0.50} {
		name := map[float64]string{0.01: "alpha=0.01", 0.05: "alpha=0.05", 0.20: "alpha=0.20", 0.50: "alpha=0.50"}[alpha]
		b.Run(name, func(b *testing.B) {
			pol := experiment.DefaultPolicies()
			pol.Merge.Alpha = alpha
			for i := 0; i < b.N; i++ {
				row, err := experiment.TableIIFor(c, false, ablationScale, pol)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(row.States), "states")
				b.ReportMetric(100*row.MRE, "MRE_%")
			}
		})
	}
}

// BenchmarkAblationCVGuard compares merging with the paper's "σ is low"
// coefficient-of-variation guard enabled vs the default (disabled): the
// guard prevents data-dependent states from pooling, exploding the state
// count.
func BenchmarkAblationCVGuard(b *testing.B) {
	c, _ := experiment.CaseByName("RAM")
	for _, maxCV := range []float64{0, 0.3} {
		name := "cv=off"
		if maxCV > 0 {
			name = "cv=0.3"
		}
		b.Run(name, func(b *testing.B) {
			pol := experiment.DefaultPolicies()
			pol.Merge.MaxCV = maxCV
			for i := 0; i < b.N; i++ {
				row, err := experiment.TableIIFor(c, false, ablationScale, pol)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(row.States), "states")
				b.ReportMetric(100*row.MRE, "MRE_%")
			}
		})
	}
}

// BenchmarkAblationCalibration disables the Hamming-distance regression:
// the data-dependent RAM loses most of its accuracy, exactly the effect
// the paper motivates the calibration with.
func BenchmarkAblationCalibration(b *testing.B) {
	c, _ := experiment.CaseByName("RAM")
	for _, skip := range []bool{false, true} {
		name := "calibration=on"
		if skip {
			name = "calibration=off"
		}
		b.Run(name, func(b *testing.B) {
			pol := experiment.DefaultPolicies()
			pol.SkipCalibration = skip
			for i := 0; i < b.N; i++ {
				row, err := experiment.TableIIFor(c, false, ablationScale, pol)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*row.MRE, "MRE_%")
			}
		})
	}
}

// BenchmarkAblationMinerStability sweeps the miner's run-length stability
// filter: disabling it lets data-driven comparison atoms fragment the
// proposition space and the PSMs.
func BenchmarkAblationMinerStability(b *testing.B) {
	c, _ := experiment.CaseByName("MultSum")
	for _, minRun := range []float64{1, 3, 8} {
		name := map[float64]string{1: "minrun=1", 3: "minrun=3", 8: "minrun=8"}[minRun]
		b.Run(name, func(b *testing.B) {
			pol := experiment.DefaultPolicies()
			pol.Mining.MinRunLength = minRun
			for i := 0; i < b.N; i++ {
				row, err := experiment.TableIIFor(c, false, ablationScale, pol)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(row.States), "states")
				b.ReportMetric(100*row.MRE, "MRE_%")
			}
		})
	}
}

// BenchmarkAblationResync compares tracking the Camellia long-TS (with its
// unknown stall behaviours) with and without the HMM resynchronization of
// Section V.
func BenchmarkAblationResync(b *testing.B) {
	c, _ := experiment.CaseByName("Camellia")
	ts, err := experiment.GenerateTraces(c, int(float64(c.ShortTS)*ablationScale), experiment.Pieces,
		testbench.Options{Seed: c.Seed})
	if err != nil {
		b.Fatal(err)
	}
	flow, err := experiment.BuildModel(ts, experiment.DefaultPolicies())
	if err != nil {
		b.Fatal(err)
	}
	val, err := experiment.GenerateTraces(c, 50000, 1,
		testbench.Options{Seed: c.Seed + 424243, Stalls: true})
	if err != nil {
		b.Fatal(err)
	}
	for _, resync := range []bool{true, false} {
		name := "resync=on"
		if !resync {
			name = "resync=off"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := powersim.Run(flow.Model, val.FTs[0], val.InputCols, val.PWs[0],
					powersim.Config{Resync: resync})
				b.ReportMetric(100*res.MRE, "MRE_%")
				b.ReportMetric(100*res.WSP(), "WSP_%")
				b.ReportMetric(float64(res.UnsyncedInstants), "unsynced")
			}
		})
	}
}

// BenchmarkPSMGeneration measures the generation pipeline alone (mining →
// XU generator → simplify → join → calibrate) per IP on the short-TS.
func BenchmarkPSMGeneration(b *testing.B) {
	for _, c := range experiment.Cases() {
		ts, err := experiment.GenerateTraces(c, c.ShortTS, experiment.Pieces,
			testbench.Options{Seed: c.Seed})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiment.BuildModel(ts, experiment.DefaultPolicies()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelPSMGeneration is BenchmarkPSMGeneration through the
// parallel pipeline (internal/pipeline) at the default worker count. The
// speedup_x metric is the sequential generation time divided by the
// parallel per-op time — on a single-core runner it hovers around 1.0
// (the pool degrades to the sequential flow); on a 4-core machine the
// per-trace stages scale with the trace-piece count.
func BenchmarkParallelPSMGeneration(b *testing.B) {
	for _, c := range experiment.Cases() {
		ts, err := experiment.GenerateTraces(c, c.ShortTS, experiment.Pieces,
			testbench.Options{Seed: c.Seed})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.Name, func(b *testing.B) {
			seqStart := time.Now()
			if _, err := experiment.BuildModel(ts, experiment.DefaultPolicies()); err != nil {
				b.Fatal(err)
			}
			seqSecs := time.Since(seqStart).Seconds()
			cfg := experiment.DefaultPolicies()
			cfg.Workers = 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := experiment.BuildModel(ts, cfg); err != nil {
					b.Fatal(err)
				}
			}
			parSecs := b.Elapsed().Seconds() / float64(b.N)
			b.ReportMetric(seqSecs/parSecs, "speedup_x")
			b.ReportMetric(float64(cfg.Parallelism()), "workers")
		})
	}
}

// BenchmarkParallelWorkerSweep sweeps the -j worker count on the AES
// generation pipeline, reporting each point's speedup over the measured
// sequential baseline. The generated model is bit-identical at every
// point (the equivalence and property suites in internal/pipeline pin
// that), so the sweep isolates pure scheduling cost/benefit.
func BenchmarkParallelWorkerSweep(b *testing.B) {
	c, _ := experiment.CaseByName("AES")
	ts, err := experiment.GenerateTraces(c, c.ShortTS, experiment.Pieces,
		testbench.Options{Seed: c.Seed})
	if err != nil {
		b.Fatal(err)
	}
	seqStart := time.Now()
	if _, err := experiment.BuildModel(ts, experiment.DefaultPolicies()); err != nil {
		b.Fatal(err)
	}
	seqSecs := time.Since(seqStart).Seconds()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("j=%d", workers), func(b *testing.B) {
			cfg := experiment.DefaultPolicies()
			cfg.Workers = workers
			for i := 0; i < b.N; i++ {
				if _, err := experiment.BuildModel(ts, cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(seqSecs/(b.Elapsed().Seconds()/float64(b.N)), "speedup_x")
		})
	}
}

// BenchmarkTrackerStep measures the steady-state cost of one PSM tracking
// step (the per-cycle overhead the IP+PSM column of Table III pays).
func BenchmarkTrackerStep(b *testing.B) {
	for _, c := range experiment.Cases() {
		ts, err := experiment.GenerateTraces(c, c.ShortTS/4, experiment.Pieces,
			testbench.Options{Seed: c.Seed})
		if err != nil {
			b.Fatal(err)
		}
		flow, err := experiment.BuildModel(ts, experiment.DefaultPolicies())
		if err != nil {
			b.Fatal(err)
		}
		ft := ts.FTs[0]
		b.Run(c.Name, func(b *testing.B) {
			sim := powersim.New(flow.Model, ts.InputCols, powersim.DefaultConfig())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.Step(ft.Row(i % ft.Len()))
			}
		})
	}
}

// BenchmarkModelSaveLoad exercises the model file round trip used by the
// psmgen/psmsim tools.
func BenchmarkModelSaveLoad(b *testing.B) {
	c, _ := experiment.CaseByName("AES")
	ts, err := experiment.GenerateTraces(c, c.ShortTS/4, experiment.Pieces,
		testbench.Options{Seed: c.Seed})
	if err != nil {
		b.Fatal(err)
	}
	flow, err := experiment.BuildModel(ts, experiment.DefaultPolicies())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := psm.Save(&buf, flow.Model); err != nil {
			b.Fatal(err)
		}
		if _, err := psm.Load(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHierarchicalCamellia regenerates the extension experiment (the
// paper's Section VII future work): flat PI/PO-level PSM vs hierarchical
// per-subcomponent PSMs on Camellia, cross-validated with stalls.
func BenchmarkHierarchicalCamellia(b *testing.B) {
	for i := 0; i < b.N; i++ {
		row, err := experiment.HierarchicalCamellia(1, experiment.DefaultPolicies())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*row.FlatMRE, "flat_MRE_%")
		b.ReportMetric(100*row.HierMRE, "hier_MRE_%")
		b.ReportMetric(float64(row.FlatStates), "flat_states")
		b.ReportMetric(float64(row.HierStates), "hier_states")
	}
}

// BenchmarkBaselines compares the PSM against two stateless power models
// (training-set constant, global input-Hamming regression) on every IP —
// quantifying what the mined temporal structure contributes.
func BenchmarkBaselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, c := range experiment.Cases() {
			r, err := experiment.BaselinesFor(c, 1, experiment.DefaultPolicies())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(100*r.ConstantMRE, r.IP+"_const_MRE_%")
			b.ReportMetric(100*r.RegressionMRE, r.IP+"_reg_MRE_%")
			b.ReportMetric(100*r.PSMMRE, r.IP+"_psm_MRE_%")
		}
	}
}

// BenchmarkDPMPolicySweep evaluates the dynamic-power-management layer
// (the use case the paper's introduction motivates PSMs with): a timeout
// policy sweep plus the oracle over a MultSum workload profile derived
// from its generated PSM.
func BenchmarkDPMPolicySweep(b *testing.B) {
	c, _ := experiment.CaseByName("MultSum")
	ts, err := experiment.GenerateTraces(c, c.ShortTS, experiment.Pieces,
		testbench.Options{Seed: c.Seed})
	if err != nil {
		b.Fatal(err)
	}
	flow, err := experiment.BuildModel(ts, experiment.DefaultPolicies())
	if err != nil {
		b.Fatal(err)
	}
	workload, err := experiment.GenerateTraces(c, 100000, 1, testbench.Options{Seed: 777})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := dpm.BuildProfile(flow.Model, workload.FTs[0], ts.InputCols, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		p.CycleSeconds = 20e-9
		var idleMean float64
		n := 0
		for t, a := range p.Active {
			if !a {
				idleMean += p.Power[t]
				n++
			}
		}
		idleMean /= float64(n)
		p.WakeEnergy = 4 * idleMean * p.CycleSeconds
		p.WakeLatency = 5
		rs := dpm.Sweep(p, []int{1, 2, 4, 8, 16, 32})
		b.ReportMetric(100*rs[1].Savings, "timeout1_savings_%")
		b.ReportMetric(100*rs[len(rs)-1].Savings, "oracle_savings_%")
	}
}

// BenchmarkSoCCoSimulation measures the chip-level virtual prototype:
// four IPs stepping in lock-step with their PSM trackers for 50k cycles.
func BenchmarkSoCCoSimulation(b *testing.B) {
	mk := func() *soc.System {
		sys := soc.New(20e-9, 0)
		for _, name := range []string{"RAM", "MultSum", "AES", "Camellia"} {
			c, _ := experiment.CaseByName(name)
			ts, err := experiment.GenerateTraces(c, c.ShortTS/4, experiment.Pieces,
				testbench.Options{Seed: c.Seed})
			if err != nil {
				b.Fatal(err)
			}
			flow, err := experiment.BuildModel(ts, experiment.DefaultPolicies())
			if err != nil {
				b.Fatal(err)
			}
			core := c.New()
			gen, err := testbench.For(core, testbench.Options{Seed: c.Seed + 1})
			if err != nil {
				b.Fatal(err)
			}
			sys.Add(soc.NewComponent(name, core, gen, flow.Model, ts.InputCols))
		}
		return sys
	}
	sys := mk()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Run(50000); err != nil {
			b.Fatal(err)
		}
	}
	r := sys.Report()
	b.ReportMetric(1e3*r.AvgPowerW, "avg_power_mW")
	b.ReportMetric(1e3*r.PeakPowerW, "peak_power_mW")
}
