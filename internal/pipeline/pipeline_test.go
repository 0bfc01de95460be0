package pipeline_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"psmkit/internal/experiment"
	"psmkit/internal/pipeline"
	"psmkit/internal/psm"
	"psmkit/internal/testbench"
	"psmkit/internal/trace"
)

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
// sequential experiment.BuildModel byte for byte in both exporters, for
// every worker count.
func TestBuildModelMatchesSequentialOnIPs(t *testing.T) {
	for _, name := range []string{"RAM", "MultSum", "AES"} {
		t.Run(name, func(t *testing.T) {
			ts := ipTraces(t, name, 2400, experiment.Pieces)
			pol := experiment.DefaultPolicies()
			flow, err := experiment.BuildModel(ts, pol)
			if err != nil {
				t.Fatal(err)
			}
			wantDOT, wantJSON := exportBytes(t, flow.Model)

			for _, workers := range []int{1, 2, 3, 4, 8} {
				cfg := pipeline.Config{
					Workers:     workers,
					Mining:      pol.Mining,
					Merge:       pol.Merge,
					Calibration: pol.Calibration,
				}
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
