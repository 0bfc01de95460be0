package stream

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"psmkit/internal/psm"
)

// segmentOracle is the push-based XU segmenter psmd ran before its
// chains were built by psm.Generate: one (proposition, power)
// observation per instant, one state per maximal run of equal
// propositions — `p U q` for a run of two or more instants, `p X q` for
// one — with its power attributes accumulated one sample at a time, and
// the trace's final run dropped because no successor closes it.
func segmentOracle(traceIdx int, ids []int, pws []float64) []*psm.State {
	var states []*psm.State
	var cur *psm.State
	for t, p := range ids {
		if cur != nil && p == cur.Alts[0].Seq.Phases[0].Prop {
			cur.Intervals[0].Stop = t
			cur.Alts[0].Seq.Phases[0].Kind = psm.Until
			cur.Power.Add(pws[t])
			continue
		}
		if cur != nil {
			states = append(states, cur)
		}
		cur = &psm.State{
			ID:        len(states),
			Alts:      []psm.Alt{{Seq: psm.Sequence{Phases: []psm.Phase{{Prop: p, Kind: psm.Next}}}, Count: 1}},
			Intervals: []psm.Interval{{Trace: traceIdx, Start: t, Stop: t}},
		}
		cur.Power.Add(pws[t])
	}
	return states
}

// TestSegmenterMatchesGenerate builds random sessions — signature runs
// whose proposition ids may repeat across adjacent runs, as two
// signatures projecting onto one kept-set proposition do — and demands
// that chainOfSession, which expands the runs and calls psm.Generate,
// equals the segmenter oracle's chain after the same Simplify and
// calibration sums: same runs, same U/X kinds, same intervals and
// bit-identical power moments. A session that closes no run yields no
// chain on both sides.
func TestSegmenterMatchesGenerate(t *testing.T) {
	ctx := context.Background()
	pol := psm.DefaultMergePolicy()
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		sd := &sessionData{}
		var propIDs, ids []int
		for r, nRuns := 0, 1+rng.Intn(20); r < nRuns; r++ {
			p := rng.Intn(4)
			n := 1 + rng.Intn(5)
			sd.runs = append(sd.runs, sigRun{n: n})
			propIDs = append(propIDs, p)
			for k := 0; k < n; k++ {
				ids = append(ids, p)
				sd.power = append(sd.power, rng.NormFloat64()*0.5+float64(p))
				sd.hd = append(sd.hd, uint32(rng.Intn(9)))
			}
		}
		sd.rows = len(ids)

		got := chainOfSession(ctx, nil, propIDs, iter, sd, pol)
		states := segmentOracle(iter, ids, sd.power)
		if len(states) == 0 {
			if got != nil {
				t.Fatalf("iter %d: no run closed (ids=%v) but chainOfSession built %d states", iter, ids, len(got.States))
			}
			continue
		}
		want := psm.Simplify(&psm.Chain{Trace: iter, States: states}, pol)
		psm.CarryCalibration(want, sd.hd, sd.power)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("iter %d: chainOfSession diverges from the segmenter oracle (ids=%v)", iter, ids)
		}
	}
}
