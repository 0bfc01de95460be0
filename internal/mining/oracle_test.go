package mining

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"psmkit/internal/logic"
	"psmkit/internal/trace"
)

// The per-atom miner is the miner as it ran before the candidate
// reduction: one full scan of every trace per candidate atom (statsFor),
// the filter over those statistics (filterAtoms, selectAtoms), then every
// kept atom evaluated again on every row (Dictionary.signature) and
// interned in trace order. It shares no reduction code with MineParallel
// — only Atom.Eval, SelectIndices and intern — and stays here as its
// oracle, beside Observe, the row-by-row fold ObserveBatch must equal.

// statsFor scans every trace once and returns the atom's statistics.
func statsFor(a Atom, traces []*trace.Functional) AtomStats {
	var st AtomStats
	for _, ft := range traces {
		prev := false
		for t := 0; t < ft.Len(); t++ {
			v := a.Eval(ft.Row(t))
			if v {
				st.Held++
				st.EverTrue = true
			} else {
				st.EverFalse = true
			}
			if t > 0 && v != prev {
				st.Changes++
			}
			prev = v
		}
	}
	return st
}

// filterAtoms computes every candidate's statistics with its own scan
// and returns the atoms the thresholds keep, with the statistics.
func filterAtoms(candidates []Atom, traces []*trace.Functional, cfg Config) ([]Atom, []AtomStats) {
	total := 0
	for _, ft := range traces {
		total += ft.Len()
	}
	stats := make([]AtomStats, len(candidates))
	for i, a := range candidates {
		stats[i] = statsFor(a, traces)
	}
	return selectAtoms(candidates, stats, total, cfg), stats
}

// selectAtoms applies SelectIndices and returns the kept atoms.
func selectAtoms(candidates []Atom, stats []AtomStats, total int, cfg Config) []Atom {
	idx := SelectIndices(candidates, stats, total, cfg)
	if idx == nil {
		return nil
	}
	kept := make([]Atom, len(idx))
	for i, ci := range idx {
		kept[i] = candidates[ci]
	}
	return kept
}

// mineOracle is the per-atom miner. Besides the dictionary and the
// proposition traces it returns the candidates' statistics (nil when the
// traces are invalid).
func mineOracle(traces []*trace.Functional, cfg Config) (*Dictionary, []*PropTrace, []AtomStats, error) {
	total, err := validateTraces(traces)
	if err != nil {
		return nil, nil, nil, err
	}
	signals := traces[0].Signals
	candidates := CandidateAtoms(signals)
	kept, stats := filterAtoms(candidates, traces, cfg)
	if len(kept) == 0 {
		return nil, nil, stats, fmt.Errorf("mining: no atomic proposition survived filtering (%d candidates over %d instants)",
			len(candidates), total)
	}
	d := &Dictionary{
		Signals: signals,
		Atoms:   kept,
		index:   map[uint64]int{},
	}
	out := make([]*PropTrace, len(traces))
	for i, ft := range traces {
		pt := &PropTrace{IDs: make([]int, ft.Len())}
		for t := 0; t < ft.Len(); t++ {
			pt.IDs[t] = d.intern(d.signature(ft.Row(t)))
		}
		out[i] = pt
	}
	return d, out, stats, nil
}

// Observe folds one valuation row into the statistics atom by atom with
// Atom.Eval and writes the packed candidate truth bits into dst (which
// must hold SigWords(NumAtoms()) words; a short or nil dst is
// reallocated). It is ObserveBatch's oracle.
func (o *Observer) Observe(row []logic.Vector, dst []uint64) []uint64 {
	words := SigWords(len(o.atoms))
	if cap(dst) < words {
		dst = make([]uint64, words)
	}
	dst = dst[:words]
	for i := range dst {
		dst[i] = 0
	}
	first := o.rows == 0
	for i, a := range o.atoms {
		v := a.Eval(row)
		st := &o.stats[i]
		if v {
			dst[i/64] |= 1 << uint(i%64)
			st.Held++
			st.EverTrue = true
		} else {
			st.EverFalse = true
		}
		if !first && v != o.prev[i] {
			st.Changes++
		}
		o.prev[i] = v
	}
	o.rows++
	return dst
}

// CheckMineMatchesOracle requires Mine and MineParallel at workers 1–4
// to equal the per-atom oracle on traces under cfg: the same error
// outcome, an equal Dictionary.Snapshot and equal proposition traces,
// and — from the reduction at every worker count — equal candidate
// AtomStats.
func CheckMineMatchesOracle(t testing.TB, traces []*trace.Functional, cfg Config) {
	t.Helper()
	wantDict, wantPTs, wantStats, wantErr := mineOracle(traces, cfg)
	check := func(name string, d *Dictionary, pts []*PropTrace, err error) {
		t.Helper()
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%s: error %v, oracle %v", name, err, wantErr)
		}
		if err != nil {
			if err.Error() != wantErr.Error() {
				t.Fatalf("%s: error %q, oracle %q", name, err, wantErr)
			}
			return
		}
		if !reflect.DeepEqual(wantDict.Snapshot(), d.Snapshot()) {
			t.Fatalf("%s: dictionary differs from the oracle's:\n got %+v\nwant %+v", name, d.Snapshot(), wantDict.Snapshot())
		}
		if !reflect.DeepEqual(wantPTs, pts) {
			t.Fatalf("%s: proposition traces differ from the oracle's", name)
		}
	}
	d, pts, err := Mine(traces, cfg)
	check("Mine", d, pts, err)
	if wantStats == nil {
		return
	}
	candidates := CandidateAtoms(traces[0].Signals)
	for workers := 1; workers <= 4; workers++ {
		name := fmt.Sprintf("MineParallel(workers=%d)", workers)
		d, pts, err := MineParallel(context.Background(), traces, cfg, workers)
		check(name, d, pts, err)
		_, stats, err := reduceTraces(context.Background(), candidates, traces, workers)
		if err != nil {
			t.Fatalf("%s: reduction: %v", name, err)
		}
		if !reflect.DeepEqual(wantStats, stats) {
			t.Fatalf("%s: candidate statistics differ from the oracle's:\n got %+v\nwant %+v", name, stats, wantStats)
		}
	}
}

// fuzzWidths are the signal widths FuzzMineMatchesOracle draws from: 1-bit
// controls (polarity pairs), equal-width 4- and 8-bit buses (comparison
// triples) and a 130-bit bus whose comparisons span three words.
var fuzzWidths = []int{1, 1, 4, 8, 8, 130}

// fuzzConfigs are the thresholds FuzzMineMatchesOracle draws from: the
// default, Fig. 3's relaxed one, and one that keeps every atom that ever
// holds, so more than MaxAtoms survive and the cap decides.
var fuzzConfigs = []Config{DefaultConfig(), {MinSupport: 0.1, MinRunLength: 2}, {}}

// fuzzValue turns one input byte into a value of the given width; on the
// 130-bit bus the byte also sets the top and middle words, so Cmp
// decides there too.
func fuzzValue(width int, v byte) logic.Vector {
	if width <= 8 {
		return logic.FromUint64(width, uint64(v))
	}
	b := make([]byte, (width+7)/8)
	b[0] = v >> 6
	b[len(b)/2] = v >> 3
	b[len(b)-1] = v
	return logic.FromBytes(width, b)
}

// fuzzTraces decodes FuzzMineMatchesOracle's input into a config index
// and a trace set:
//
//   - byte 0: the signal count (1 + b%16; 16 signals of one width give
//     2·16 + 3·120 candidates, far past one 64-bit word);
//   - byte 1: the config (b % len(fuzzConfigs));
//   - one byte per signal: its width (fuzzWidths[b%6]);
//   - then one byte pair per row: a ≥ 0xF0 starts a new trace (at most
//     four), otherwise signal a%n takes the value b while every other
//     signal holds, so rows form runs like real control traffic.
//
// Every trace holds at least one row and at most 512 rows are decoded.
func fuzzTraces(data []byte) (Config, []*trace.Functional) {
	if len(data) < 2 {
		data = append(append([]byte(nil), data...), 0, 0)
	}
	n := 1 + int(data[0])%16
	cfg := fuzzConfigs[int(data[1])%len(fuzzConfigs)]
	data = data[2:]
	sigs := make([]trace.Signal, n)
	for i := range sigs {
		w := fuzzWidths[0]
		if i < len(data) {
			w = fuzzWidths[int(data[i])%len(fuzzWidths)]
		}
		sigs[i] = trace.Signal{Name: fmt.Sprintf("s%d", i), Width: w}
	}
	if len(data) > n {
		data = data[n:]
	} else {
		data = nil
	}
	row := make([]logic.Vector, n)
	for i, s := range sigs {
		row[i] = fuzzValue(s.Width, 0)
	}
	cur := trace.NewFunctional(sigs)
	traces := []*trace.Functional{cur}
	for k, rows := 0, 0; k+1 < len(data) && rows < 512; k += 2 {
		a, b := data[k], data[k+1]
		if a >= 0xF0 {
			if cur.Len() > 0 && len(traces) < 4 {
				cur = trace.NewFunctional(sigs)
				traces = append(traces, cur)
			}
			continue
		}
		j := int(a) % n
		row[j] = fuzzValue(sigs[j].Width, b)
		cur.Append(row)
		rows++
	}
	if cur.Len() == 0 {
		cur.Append(row)
	}
	return cfg, traces
}

// FuzzMineMatchesOracle turns arbitrary bytes into a schema and a trace
// set (fuzzTraces) and requires the miner to equal the per-atom oracle
// (CheckMineMatchesOracle). The seed corpus under
// testdata/fuzz/FuzzMineMatchesOracle is written by
// `go run ./scripts/fuzzcorpus`.
func FuzzMineMatchesOracle(f *testing.F) {
	f.Add([]byte{3, 0, 0, 2, 3, 0, 1, 2, 7, 1, 0, 0xF0, 0, 2, 9, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, traces := fuzzTraces(data)
		CheckMineMatchesOracle(t, traces, cfg)
	})
}

// TestMineMatchesOracle runs the oracle check on the run-structured
// random trace sets of the parallel tests, at every config.
func TestMineMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		traces := randomTraces(rand.New(rand.NewSource(seed)), 1+int(seed)%4, 1, 300)
		for _, cfg := range fuzzConfigs {
			CheckMineMatchesOracle(t, traces, cfg)
		}
	}
	CheckMineMatchesOracle(t, []*trace.Functional{fig3Trace()}, fig3Config())
}

// TestObserveBatchMatchesObserve: the grouped batch reduction must leave
// exactly the bits and statistics of the row-by-row oracle, on atom
// lists that keep CandidateAtoms' groups, split them, reorder them or
// interleave them, and for any batch split of the rows.
func TestObserveBatchMatchesObserve(t *testing.T) {
	traces := randomTraces(rand.New(rand.NewSource(3)), 1, 200, 200)
	ft := traces[0]
	cand := CandidateAtoms(ft.Signals)
	reversed := make([]Atom, len(cand))
	for i, a := range cand {
		reversed[len(cand)-1-i] = a
	}
	var interleaved []Atom
	for i := 0; i < len(cand); i += 2 {
		interleaved = append(interleaved, cand[i])
	}
	for i := 1; i < len(cand); i += 2 {
		interleaved = append(interleaved, cand[i])
	}
	// 70 atoms: the candidates repeated, so the bitset spans two words
	// and groups straddle the word boundary.
	var wide []Atom
	for len(wide) < 70 {
		wide = append(wide, cand...)
	}
	wide = wide[:70]
	lists := map[string][]Atom{
		"candidates":  cand,
		"reversed":    reversed,
		"interleaved": interleaved,
		"split": {
			{Kind: AtomTrue, A: 0}, {Kind: AtomLT, A: 2, B: 3}, {Kind: AtomFalse, A: 0},
			{Kind: AtomEQ, A: 2, B: 3}, {Kind: AtomNonZero, A: 4}, {Kind: AtomGT, A: 2, B: 3}, {Kind: AtomZero, A: 4},
		},
		"reordered": {
			{Kind: AtomGT, A: 2, B: 3}, {Kind: AtomLT, A: 2, B: 3}, {Kind: AtomEQ, A: 2, B: 3},
			{Kind: AtomFalse, A: 1}, {Kind: AtomTrue, A: 1}, {Kind: AtomNonZero, A: 3}, {Kind: AtomZero, A: 3},
			{Kind: AtomGT, A: 3, B: 2}, {Kind: AtomLT, A: 2, B: 4}, {Kind: AtomLT, A: 2, B: 3},
		},
		"wide": wide,
	}
	for name, atoms := range lists {
		for _, batch := range []int{1, 3, 64, 200} {
			want, got := NewObserver(atoms), NewObserver(atoms)
			words := SigWords(len(atoms))
			var wantBits, gotBits []uint64
			for t := 0; t < ft.Len(); t++ {
				wantBits = append(wantBits, want.Observe(ft.Row(t), nil)...)
			}
			var buf []uint64
			for start := 0; start < ft.Len(); start += batch {
				var rows [][]logic.Vector
				for t := start; t < ft.Len() && t < start+batch; t++ {
					rows = append(rows, ft.Row(t))
				}
				buf = got.ObserveBatch(rows, buf)
				if len(buf) != words*len(rows) {
					t.Fatalf("%s/batch %d: %d words for %d rows", name, batch, len(buf), len(rows))
				}
				gotBits = append(gotBits, buf...)
			}
			if !reflect.DeepEqual(wantBits, gotBits) {
				t.Fatalf("%s/batch %d: packed bits differ from the row-by-row oracle", name, batch)
			}
			if !reflect.DeepEqual(want.Stats(), got.Stats()) {
				t.Fatalf("%s/batch %d: statistics differ:\n got %+v\nwant %+v", name, batch, got.Stats(), want.Stats())
			}
			if want.rows != got.rows {
				t.Fatalf("%s/batch %d: %d rows, oracle %d", name, batch, got.rows, want.rows)
			}
		}
	}
}
