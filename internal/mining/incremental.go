package mining

import (
	"fmt"

	"psmkit/internal/logic"
	"psmkit/internal/trace"
)

// This file is the candidate reduction every miner runs: an Observer
// consumes a trace's valuation rows batch by batch, reducing each row to
// a packed candidate-atom truth bitset and folding it into the exact
// integer statistics the filter (SelectIndices) decides on. MineParallel
// reduces each batch trace through one, and internal/stream each psmd
// session. The bitset is lossless with respect to every downstream mining
// decision — any kept-atom subset's signature is a projection of it
// (ProjectSignature) — so psmd discards the raw logic vectors right after
// observing a record, and the batch miner never evaluates an atom twice.

// SigWords returns the number of 64-bit words a packed truth bitset over
// n atoms occupies.
func SigWords(n int) int { return (n + 63) / 64 }

// evalOp is the evaluation an atom's truth derives from: the low bit of
// signal A, A's zero test, or the unsigned comparison of A with B.
type evalOp uint8

const (
	opBit evalOp = iota
	opZero
	opCmp
)

// opOf returns the evaluation behind an atom kind and the outcome under
// which the atom holds: opBit's outcome is the bit, opZero's is 1 for a
// zero vector, opCmp's is the sign of Cmp. Atom.Eval is exactly
// "outcome == want".
func opOf(k AtomKind) (op evalOp, want int8) {
	switch k {
	case AtomTrue:
		return opBit, 1
	case AtomFalse:
		return opBit, 0
	case AtomZero:
		return opZero, 1
	case AtomNonZero:
		return opZero, 0
	case AtomLT:
		return opCmp, -1
	case AtomEQ:
		return opCmp, 0
	case AtomGT:
		return opCmp, 1
	default:
		panic("mining: unknown atom kind")
	}
}

// atomGroup is a run of consecutive candidates [start, end) over one
// evaluation: a polarity pair, a zero-test pair or a comparison triple,
// as CandidateAtoms emits them. A list that splits or reorders those
// groups still reduces correctly, in more, smaller groups.
type atomGroup struct {
	op         evalOp
	a, b       int
	start, end int
}

// eval writes the group's outcome on every row into out.
func (g atomGroup) eval(rows [][]logic.Vector, out []int8) {
	switch g.op {
	case opBit:
		for r, row := range rows {
			out[r] = int8(row[g.a].Bit(0))
		}
	case opZero:
		for r, row := range rows {
			out[r] = 0
			if row[g.a].IsZero() {
				out[r] = 1
			}
		}
	default:
		for r, row := range rows {
			out[r] = int8(row[g.a].Cmp(row[g.b]))
		}
	}
}

// Observer incrementally evaluates a fixed candidate-atom set over the
// rows of one trace. It is single-goroutine by design (one per trace or
// streaming session); partial statistics from several observers merge
// exactly via MergeStats because every field of AtomStats is an exact
// count.
type Observer struct {
	atoms   []Atom
	want    []int8 // per atom: the group outcome under which it holds
	groups  []atomGroup
	stats   []AtomStats
	prev    []bool
	rows    int
	outcome []int8 // per-batch scratch: one group's outcome per row
}

// NewObserver returns an observer over the given candidate atoms
// (typically CandidateAtoms of the session's schema).
func NewObserver(atoms []Atom) *Observer {
	o := &Observer{
		atoms: atoms,
		want:  make([]int8, len(atoms)),
		stats: make([]AtomStats, len(atoms)),
		prev:  make([]bool, len(atoms)),
	}
	for i, a := range atoms {
		op, want := opOf(a.Kind)
		o.want[i] = want
		b := a.B
		if op != opCmp {
			b = 0 // only comparisons read B
		}
		if n := len(o.groups); n > 0 && o.groups[n-1].op == op && o.groups[n-1].a == a.A && o.groups[n-1].b == b {
			o.groups[n-1].end = i + 1
			continue
		}
		o.groups = append(o.groups, atomGroup{op: op, a: a.A, b: b, start: i, end: i + 1})
	}
	return o
}

// NumAtoms returns the candidate count (the bitset width).
func (o *Observer) NumAtoms() int { return len(o.atoms) }

// ObserveBatch folds a batch of rows into the statistics, writing row
// r's packed truth bits at dst[r*SigWords(NumAtoms()):] (a short or nil
// dst is reallocated; the returned slice aliases dst when it was large
// enough). Each atom group is evaluated once per row, and every atom of
// the group reads its truth off that one outcome; the statistics then
// accumulate per atom over the whole batch. The result is exactly that
// of folding the rows one at a time, atom by atom, with Atom.Eval —
// every AtomStats field is an exact count, so increment order is
// immaterial (the package tests keep that row-by-row fold as the
// oracle).
func (o *Observer) ObserveBatch(rows [][]logic.Vector, dst []uint64) []uint64 {
	words := SigWords(len(o.atoms))
	need := words * len(rows)
	if cap(dst) < need {
		dst = make([]uint64, need)
	}
	dst = dst[:need]
	clear(dst)
	if len(rows) == 0 {
		return dst
	}
	if cap(o.outcome) < len(rows) {
		o.outcome = make([]int8, len(rows))
	}
	out := o.outcome[:len(rows)]
	first := o.rows == 0
	for _, g := range o.groups {
		g.eval(rows, out)
		for i := g.start; i < g.end; i++ {
			o.fold(i, out, dst, words, first)
		}
	}
	o.rows += len(rows)
	return dst
}

// fold accumulates atom i over one batch from its group's outcomes: the
// atom holds on row r when out[r] is its want. On the trace's first
// batch the first row has no predecessor and counts no change.
func (o *Observer) fold(i int, out []int8, dst []uint64, words int, first bool) {
	want := o.want[i]
	prev := o.prev[i]
	if first {
		prev = out[0] == want
	}
	word, bit := i/64, uint64(1)<<uint(i%64)
	held, changes := 0, 0
	for r, c := range out {
		v := c == want
		if v {
			dst[r*words+word] |= bit
			held++
		}
		if v != prev {
			changes++
		}
		prev = v
	}
	st := &o.stats[i]
	st.Held += held
	st.Changes += changes
	st.EverTrue = st.EverTrue || held > 0
	st.EverFalse = st.EverFalse || held < len(out)
	o.prev[i] = prev
}

// Stats returns the per-atom statistics accumulated so far. The returned
// slice is the observer's own storage; callers that outlive the observer
// should MergeStats it into their accumulator instead of retaining it.
func (o *Observer) Stats() []AtomStats { return o.stats }

// MergeStats folds the per-atom partials of src into dst (same candidate
// order). It panics on a length mismatch — that is always a schema bug.
func MergeStats(dst, src []AtomStats) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("mining: merging %d atom stats into %d", len(src), len(dst)))
	}
	for i := range src {
		dst[i].Merge(src[i])
	}
}

// ProjectSignature extracts the kept-atom signature of one row from its
// packed candidate truth bits: bit k of the result is candidate bit
// keptIdx[k]. Projecting the stored bitsets with the SelectIndices of the
// full trace set reproduces exactly the signature the kept dictionary
// computes for the row (EvalRow).
func ProjectSignature(bits []uint64, keptIdx []int) uint64 {
	var sig uint64
	for k, ci := range keptIdx {
		if bits[ci/64]&(1<<uint(ci%64)) != 0 {
			sig |= 1 << uint(k)
		}
	}
	return sig
}

// NewDictionary returns an empty dictionary over an already-selected atom
// set, ready for sequential Intern replay in trace order. It is how the
// streaming engine rebuilds (or extends) the vocabulary the batch miner
// would have produced.
func NewDictionary(signals []trace.Signal, kept []Atom) *Dictionary {
	return &Dictionary{
		Signals: append([]trace.Signal(nil), signals...),
		Atoms:   append([]Atom(nil), kept...),
		index:   map[uint64]int{},
	}
}

// Intern returns the proposition id of a kept-atom signature, assigning
// the next id on first sight. Like the unexported intern it wraps, it is
// single-writer: only one goroutine may call it, and once the dictionary
// is published for EvalRow readers it must not be called again. The
// streaming engine honors this by interning only under its snapshot lock,
// in session-completion order — which is exactly the sequential replay
// order MineParallel uses, so ids match the batch flow.
func (d *Dictionary) Intern(sig uint64) int { return d.intern(sig) }
