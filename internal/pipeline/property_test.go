package pipeline_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"psmkit/internal/logic"
	"psmkit/internal/pipeline"
	"psmkit/internal/trace"
)

// propCase is one randomized trace set: the input of both flows.
type propCase struct {
	fts  []*trace.Functional
	pws  []*trace.Power
	cols []int
}

func (c propCase) String() string {
	var lens []int
	for _, ft := range c.fts {
		lens = append(lens, ft.Len())
	}
	return fmt.Sprintf("traces=%d lens=%v inputs=%v", len(c.fts), lens, c.cols)
}

// genCase draws a random trace set: a mixed-width schema, run-structured
// valuations (so the miner finds stable atoms), and a power trace whose
// level tracks the control state with data-dependent jitter (so simplify,
// join and calibration all have real merge decisions to make).
func genCase(rng *rand.Rand) propCase {
	sigs := []trace.Signal{
		{Name: "en", Width: 1},
		{Name: "busy", Width: 1},
		{Name: "op", Width: 2},
		{Name: "a", Width: 4},
		{Name: "b", Width: 4},
	}
	nTraces := 1 + rng.Intn(4)
	var c propCase
	c.cols = []int{0, 2, 3} // en, op, a
	for i := 0; i < nTraces; i++ {
		n := 30 + rng.Intn(270)
		ft := trace.NewFunctional(sigs)
		pw := &trace.Power{}
		row := make([]logic.Vector, len(sigs))
		for j, s := range sigs {
			row[j] = logic.FromUint64(s.Width, uint64(rng.Intn(1<<uint(s.Width))))
		}
		for t := 0; t < n; t++ {
			for j, s := range sigs {
				// Control signals (narrow) change rarely, data often.
				p := 0.08
				if s.Width > 2 {
					p = 0.4
				}
				if rng.Float64() < p {
					row[j] = logic.FromUint64(s.Width, uint64(rng.Intn(1<<uint(s.Width))))
				}
			}
			ft.Append(row)
			level := 1.0
			if row[0].Bit(0) == 1 {
				level += 2.5
			}
			if row[1].Bit(0) == 1 {
				level += 1.2
			}
			hw := 0.0
			for b := 0; b < 4; b++ {
				hw += float64(row[3].Bit(b))
			}
			pw.Values = append(pw.Values, level+0.15*hw+0.01*rng.NormFloat64())
		}
		c.fts = append(c.fts, ft)
		c.pws = append(c.pws, pw)
	}
	return c
}

// runBoth executes the sequential and parallel flows and returns a
// non-empty mismatch description when they disagree. Both flows failing
// (for any reason) counts as agreement; exactly one failing does not.
func runBoth(c propCase, workers int) string {
	cfg := pipeline.DefaultConfig()
	seq, seqErr := sequentialBuild(c.fts, c.pws, c.cols, cfg)

	cfg.Workers = workers
	par, parErr := pipeline.BuildModel(context.Background(), c.fts, c.pws, c.cols, cfg)

	switch {
	case seqErr != nil && parErr != nil:
		return ""
	case seqErr != nil:
		return fmt.Sprintf("sequential failed (%v) but parallel succeeded", seqErr)
	case parErr != nil:
		return fmt.Sprintf("parallel failed (%v) but sequential succeeded", parErr)
	}

	if seq.NumStates() != par.NumStates() || seq.NumTransitions() != par.NumTransitions() {
		return fmt.Sprintf("shape differs: seq %d states/%d transitions, par %d/%d",
			seq.NumStates(), seq.NumTransitions(), par.NumStates(), par.NumTransitions())
	}
	var seqDOT, parDOT, seqJSON, parJSON bytes.Buffer
	if err := seq.WriteDOT(&seqDOT, "m"); err != nil {
		return err.Error()
	}
	if err := par.WriteDOT(&parDOT, "m"); err != nil {
		return err.Error()
	}
	if !bytes.Equal(seqDOT.Bytes(), parDOT.Bytes()) {
		return "DOT exports differ"
	}
	if err := seq.WriteJSON(&seqJSON); err != nil {
		return err.Error()
	}
	if err := par.WriteJSON(&parJSON); err != nil {
		return err.Error()
	}
	if !bytes.Equal(seqJSON.Bytes(), parJSON.Bytes()) {
		return "JSON exports differ"
	}
	return ""
}

// shrink greedily reduces a failing case while it keeps failing: first
// dropping whole traces, then repeatedly halving trace lengths. The
// returned case is locally minimal for these moves.
func shrink(c propCase, workers int) propCase {
	improved := true
	for improved {
		improved = false
		// Drop one trace at a time.
		for i := 0; i < len(c.fts) && len(c.fts) > 1; i++ {
			cand := propCase{cols: c.cols}
			cand.fts = append(append([]*trace.Functional{}, c.fts[:i]...), c.fts[i+1:]...)
			cand.pws = append(append([]*trace.Power{}, c.pws[:i]...), c.pws[i+1:]...)
			if runBoth(cand, workers) != "" {
				c = cand
				improved = true
				break
			}
		}
		// Halve each trace.
		for i := range c.fts {
			n := c.fts[i].Len()
			if n < 8 {
				continue
			}
			cand := propCase{cols: c.cols, fts: append([]*trace.Functional{}, c.fts...), pws: append([]*trace.Power{}, c.pws...)}
			cand.fts[i] = prefix(c.fts[i], n/2)
			cand.pws[i] = &trace.Power{Values: c.pws[i].Values[:n/2]}
			if runBoth(cand, workers) != "" {
				c = cand
				improved = true
				break
			}
		}
	}
	return c
}

// prefix copies the first n instants of a functional trace.
func prefix(ft *trace.Functional, n int) *trace.Functional {
	out := trace.NewFunctional(ft.Signals)
	for t := 0; t < n; t++ {
		out.Append(ft.Row(t))
	}
	return out
}

// TestPropertyParallelEquivalence is the randomized equivalence suite:
// for a fixed set of seeds, parallel BuildModel must agree with the
// sequential flow on states, transitions, power attributes and the
// exported JSON/DOT bytes. Failures are shrunk to a minimal trace set
// and reported with the seed so they replay deterministically.
func TestPropertyParallelEquivalence(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		c := genCase(rng)
		for _, workers := range []int{2, 4} {
			if msg := runBoth(c, workers); msg != "" {
				min := shrink(c, workers)
				t.Fatalf("seed %d workers %d: %s\nshrunk to: %s (was %s)\nre-run with rand.NewSource(%d) to reproduce",
					seed, workers, msg, min, c, seed)
			}
		}
	}
}
