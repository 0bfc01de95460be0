package pipeline_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"psmkit/internal/experiment"
	"psmkit/internal/mining"
	"psmkit/internal/pipeline"
	"psmkit/internal/psm"
	"psmkit/internal/testbench"
	"psmkit/internal/trace"
)

// sequentialBuild is the oracle of the parity suites: the paper's flow
// as five sequential calls — mining.Mine, then psm.Generate and
// psm.Simplify per trace, psm.Join and psm.Calibrate — with no worker
// pool. pipeline.BuildModel must match it byte for byte at every worker
// count.
func sequentialBuild(fts []*trace.Functional, pws []*trace.Power, inputCols []int, cfg pipeline.Config) (*psm.Model, error) {
	dict, pts, err := mining.Mine(fts, cfg.Mining)
	if err != nil {
		return nil, err
	}
	var chains []*psm.Chain
	for i, pt := range pts {
		c, err := psm.Generate(dict, pt, pws[i], i)
		if err != nil {
			return nil, fmt.Errorf("trace %d: %w", i, err)
		}
		chains = append(chains, psm.Simplify(c, cfg.Merge))
	}
	model := psm.Join(chains, cfg.Merge)
	if !cfg.SkipCalibration {
		psm.Calibrate(model, fts, pws, inputCols, cfg.Calibration)
	}
	return model, nil
}

// exportBytes renders the model through both canonical exporters.
func exportBytes(t *testing.T, m *psm.Model) ([]byte, []byte) {
	t.Helper()
	var dot, js bytes.Buffer
	if err := m.WriteDOT(&dot, "m"); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	return dot.Bytes(), js.Bytes()
}

// ipTraces simulates a benchmark IP into a small training set.
func ipTraces(t testing.TB, name string, total, pieces int) *experiment.TraceSet {
	t.Helper()
	c, err := experiment.CaseByName(name)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := experiment.GenerateTraces(c, total, pieces, testbench.Options{Seed: c.Seed})
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// TestBuildModelMatchesSequentialOnIPs is the core determinism contract:
// on real benchmark workloads the parallel flow must reproduce the
// sequential oracle byte for byte in both exporters, for every worker
// count.
func TestBuildModelMatchesSequentialOnIPs(t *testing.T) {
	for _, name := range []string{"RAM", "MultSum", "AES"} {
		t.Run(name, func(t *testing.T) {
			ts := ipTraces(t, name, 2400, experiment.Pieces)
			cfg := pipeline.DefaultConfig()
			seq, err := sequentialBuild(ts.FTs, ts.PWs, ts.InputCols, cfg)
			if err != nil {
				t.Fatal(err)
			}
			wantDOT, wantJSON := exportBytes(t, seq)

			for _, workers := range []int{1, 2, 3, 4, 8} {
				cfg.Workers = workers
				m, err := pipeline.BuildModel(context.Background(), ts.FTs, ts.PWs, ts.InputCols, cfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				gotDOT, gotJSON := exportBytes(t, m)
				if !bytes.Equal(wantDOT, gotDOT) {
					t.Errorf("workers=%d: DOT export differs from sequential flow", workers)
				}
				if !bytes.Equal(wantJSON, gotJSON) {
					t.Errorf("workers=%d: JSON export differs from sequential flow", workers)
				}
			}
		})
	}
}

// TestBuildModelErrorPropagation feeds a power trace that is too short
// for its functional trace: the per-chain stage must surface the error.
func TestBuildModelErrorPropagation(t *testing.T) {
	ts := ipTraces(t, "RAM", 1200, 3)
	pws := append([]*trace.Power(nil), ts.PWs...)
	pws[1] = &trace.Power{Values: pws[1].Values[:3]}
	cfg := pipeline.DefaultConfig()
	cfg.Workers = 4
	_, err := pipeline.BuildModel(context.Background(), ts.FTs, pws, ts.InputCols, cfg)
	if err == nil {
		t.Fatal("short power trace accepted")
	}
	if !strings.Contains(err.Error(), "trace 1") {
		t.Errorf("error does not name the failing trace: %v", err)
	}

	if _, err := pipeline.BuildModel(context.Background(), ts.FTs, pws[:2], ts.InputCols, cfg); err == nil {
		t.Fatal("mismatched trace list lengths accepted")
	}
}

// TestBuildModelCancellation aborts mid-flow.
func TestBuildModelCancellation(t *testing.T) {
	ts := ipTraces(t, "RAM", 1200, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := pipeline.DefaultConfig()
	cfg.Workers = 4
	if _, err := pipeline.BuildModel(ctx, ts.FTs, ts.PWs, ts.InputCols, cfg); err != context.Canceled {
		t.Fatalf("cancelled build returned %v, want context.Canceled", err)
	}
}
