package psm

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"psmkit/internal/logic"
	"psmkit/internal/mining"
	"psmkit/internal/obs"
	"psmkit/internal/trace"
)

// calibrationWorld mines random traces whose power is data dependent — a
// level per control mode plus a slope on the input Hamming distance —
// into simplified chains (which carry no calibration sums).
func calibrationWorld(t *testing.T, seed int64) ([]*trace.Functional, []*trace.Power, []int, []*Chain) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sigs := []trace.Signal{{Name: "mode", Width: 2}, {Name: "data", Width: 8}}
	cols := []int{0, 1}
	var fts []*trace.Functional
	var pws []*trace.Power
	for i := 0; i < 2+rng.Intn(3); i++ {
		f := trace.NewFunctional(sigs)
		mode := uint64(rng.Intn(4))
		for n := 40 + rng.Intn(120); f.Len() < n; mode = (mode + 1 + uint64(rng.Intn(3))) % 4 {
			for run := 3 + rng.Intn(10); run > 0; run-- {
				f.Append([]logic.Vector{logic.FromUint64(2, mode), logic.FromUint64(8, uint64(rng.Intn(256)))})
			}
		}
		hd := f.InputHammingDistance(cols)
		pw := &trace.Power{}
		for k := range hd {
			m := float64(f.Row(k)[0].Uint64())
			pw.Values = append(pw.Values, 1+1.5*m+0.3*hd[k]+0.01*rng.NormFloat64())
		}
		fts = append(fts, f)
		pws = append(pws, pw)
	}
	dict, pts, err := mining.Mine(fts, mining.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var chains []*Chain
	for i, pt := range pts {
		c, err := Generate(dict, pt, pws[i], i)
		if err != nil {
			t.Fatal(err)
		}
		chains = append(chains, Simplify(c, DefaultMergePolicy()))
	}
	return fts, pws, cols, chains
}

// carried returns copies of the chains with their calibration sums
// filled from the traces' series.
func carried(fts []*trace.Functional, pws []*trace.Power, cols []int, chains []*Chain) []*Chain {
	out := make([]*Chain, len(chains))
	for i, c := range chains {
		cp := &Chain{Dict: c.Dict, Trace: c.Trace}
		for _, s := range c.States {
			cp.States = append(cp.States, clonedState(s))
		}
		CarryCalibration(cp, fts[c.Trace].InputHammingDistance(cols), pws[c.Trace].Values)
		out[i] = cp
	}
	return out
}

func calibrated(t *testing.T, m *Model, fts []*trace.Functional, pws []*trace.Power, cols []int) (json []byte, fits, samples int64) {
	t.Helper()
	reg := obs.NewRegistry()
	CalibrateCtx(obs.WithRegistry(context.Background(), reg), m, fts, pws, cols, DefaultCalibrationPolicy())
	var b bytes.Buffer
	if err := m.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	c := reg.Snapshot().Counters
	return b.Bytes(), c["psm_calibration_fits_total"], c["psm_calibrate_samples_total"]
}

// TestCarriedCalibrationMatchesWalk pins the exact-merge contract at
// the model level: chains carrying their sums, pooled by the streaming
// fold (psm.Joiner) in its own merge order, calibrate without reading a
// trace to the byte-identical model the batch join gets by walking every
// fitted state's intervals. A model mixing carrying and bare chains
// walks exactly the states whose sums do not cover their evidence.
func TestCarriedCalibrationMatchesWalk(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 12; seed++ {
		fts, pws, cols, chains := calibrationWorld(t, seed)
		want, fits, walked := calibrated(t, Join(chains, DefaultMergePolicy()), fts, pws, cols)
		if fits == 0 || walked == 0 {
			t.Fatalf("seed %d: batch calibration fitted %d states walking %d samples; the world is not data dependent", seed, fits, walked)
		}

		j := NewJoiner(DefaultMergePolicy())
		for _, c := range carried(fts, pws, cols, chains) {
			j.Add(ctx, c)
		}
		got, gotFits, gotWalked := calibrated(t, j.Snapshot(ctx), nil, nil, nil)
		if gotWalked != 0 || gotFits != fits || !bytes.Equal(got, want) {
			t.Fatalf("seed %d: carried sums fitted %d states walking %d samples (want %d, 0); models equal: %v",
				seed, gotFits, gotWalked, fits, bytes.Equal(got, want))
		}

		mixed := carried(fts, pws, cols, chains)
		mixed[0] = chains[0]
		got, _, _ = calibrated(t, Join(mixed, DefaultMergePolicy()), fts, pws, cols)
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: a model mixing carried and bare chains calibrates differently", seed)
		}
	}
}
