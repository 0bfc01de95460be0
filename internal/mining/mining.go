// Package mining implements the dynamic assertion-mining front end of the
// PSM flow (Section III-A of the paper, after Danese et al., DATE 2015):
//
//  1. extract atomic propositions over the model's primary inputs and
//     outputs that hold frequently and stably on the training traces;
//  2. build the truth matrix m (atomic × instant);
//  3. AND-compose each distinct matrix row into a proposition, yielding a
//     set Prop such that exactly one proposition holds at every instant;
//  4. rewrite each functional trace as a proposition trace Γ.
//
// The resulting Dictionary is retained: during PSM simulation it maps any
// fresh PI/PO valuation to the proposition that holds (or reports an
// unknown behaviour), which is what keeps the PSMs synchronized with the
// IP.
package mining

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"psmkit/internal/logic"
	"psmkit/internal/trace"
)

// Config tunes the atomic-proposition extraction.
type Config struct {
	// MinSupport is the minimum fraction of instants an atomic
	// proposition over multi-bit signals must hold to be retained.
	MinSupport float64
	// MinRunLength is the minimum average run length (instants between
	// value changes) of a multi-bit atomic's truth sequence. It is the
	// stability filter that discards data-driven comparisons (which
	// flicker at random) while keeping mode-describing relations.
	// Single-bit control signals are exempt: their pulses are exactly the
	// behaviour delimiters the temporal patterns need.
	MinRunLength float64
}

// DefaultConfig returns the thresholds used in the paper reproduction.
func DefaultConfig() Config {
	return Config{MinSupport: 0.02, MinRunLength: 3}
}

// AtomKind enumerates the relational templates of atomic propositions.
type AtomKind int

const (
	// AtomTrue / AtomFalse predicate a single-bit signal's polarity.
	AtomTrue AtomKind = iota
	AtomFalse
	// AtomZero / AtomNonZero predicate a multi-bit signal against zero.
	AtomZero
	AtomNonZero
	// AtomLT / AtomEQ / AtomGT compare two equal-width signals.
	AtomLT
	AtomEQ
	AtomGT
)

// Atom is an atomic proposition over one or two trace signals.
type Atom struct {
	Kind AtomKind
	A, B int // signal columns; B is used by the comparison kinds only
}

// Eval evaluates the atom on one valuation row.
func (a Atom) Eval(row []logic.Vector) bool {
	switch a.Kind {
	case AtomTrue:
		return row[a.A].Bit(0) == 1
	case AtomFalse:
		return row[a.A].Bit(0) == 0
	case AtomZero:
		return row[a.A].IsZero()
	case AtomNonZero:
		return !row[a.A].IsZero()
	case AtomLT:
		return row[a.A].Cmp(row[a.B]) < 0
	case AtomEQ:
		return row[a.A].Cmp(row[a.B]) == 0
	case AtomGT:
		return row[a.A].Cmp(row[a.B]) > 0
	default:
		panic("mining: unknown atom kind")
	}
}

// String renders the atom over the given signal set.
func (a Atom) String(signals []trace.Signal) string {
	n := func(i int) string { return signals[i].Name }
	switch a.Kind {
	case AtomTrue:
		return n(a.A) + "=true"
	case AtomFalse:
		return n(a.A) + "=false"
	case AtomZero:
		return n(a.A) + "=0"
	case AtomNonZero:
		return n(a.A) + "!=0"
	case AtomLT:
		return n(a.A) + "<" + n(a.B)
	case AtomEQ:
		return n(a.A) + "=" + n(a.B)
	case AtomGT:
		return n(a.A) + ">" + n(a.B)
	default:
		return "?"
	}
}

// MaxAtoms bounds the retained atomic propositions so a proposition's
// truth signature packs into one machine word, keeping the per-instant
// EvalRow on the PSM simulation hot path allocation-free. When more atoms
// survive filtering, the highest-support ones win.
const MaxAtoms = 64

// Dictionary is the mined proposition vocabulary of one IP: the retained
// atomic propositions and the set Prop of AND-compositions observed on the
// training traces. Exactly one proposition of Prop holds at each training
// instant; on fresh data EvalRow reports which proposition holds, or
// Unknown for a valuation whose atom signature was never seen in training.
type Dictionary struct {
	Signals []trace.Signal
	Atoms   []Atom

	propKeys []uint64       // canonical signature (atom truth bitmask) per proposition id
	index    map[uint64]int // signature → proposition id
}

// Unknown is returned by EvalRow for valuations outside the mined set.
const Unknown = -1

// NumProps returns the cardinality of the mined proposition set.
func (d *Dictionary) NumProps() int { return len(d.propKeys) }

// signature computes the canonical truth signature of a valuation row:
// bit i is set when atom i holds.
func (d *Dictionary) signature(row []logic.Vector) uint64 {
	var bits uint64
	for i, a := range d.Atoms {
		if a.Eval(row) {
			bits |= 1 << uint(i)
		}
	}
	return bits
}

// EvalRow maps a valuation to its proposition id, or Unknown. It
// allocates nothing and, once mining has returned (the index is never
// written afterwards), is safe for any number of concurrent readers —
// the parallel experiment rows and the SoC co-simulation rely on this.
func (d *Dictionary) EvalRow(row []logic.Vector) int {
	if id, ok := d.index[d.signature(row)]; ok {
		return id
	}
	return Unknown
}

// intern returns the proposition id for a signature, creating it if new.
// It is single-writer by design: only the mining goroutine calls it
// (MineParallel reduces the traces concurrently, then replays their
// signatures here sequentially), which is what keeps EvalRow lock-free.
func (d *Dictionary) intern(sig uint64) int {
	if id, ok := d.index[sig]; ok {
		return id
	}
	id := len(d.propKeys)
	d.propKeys = append(d.propKeys, sig)
	d.index[sig] = id
	return id
}

// PropString renders proposition id as the AND of its true atoms (the
// paper's composition step keeps exactly the atomics marked true in the
// matrix row).
func (d *Dictionary) PropString(id int) string {
	if id == Unknown {
		return "<unknown>"
	}
	sig := d.propKeys[id]
	var parts []string
	for i, a := range d.Atoms {
		if sig&(1<<uint(i)) != 0 {
			parts = append(parts, a.String(d.Signals))
		}
	}
	if len(parts) == 0 {
		return "true"
	}
	return strings.Join(parts, " & ")
}

// PropTrace is a proposition trace Γ: the proposition id holding at each
// instant of one functional trace.
type PropTrace struct {
	IDs []int
}

// Len returns the number of instants.
func (p *PropTrace) Len() int { return len(p.IDs) }

// validateTraces checks the schema/emptiness preconditions of the miner
// and returns the total instant count.
func validateTraces(traces []*trace.Functional) (int, error) {
	if len(traces) == 0 {
		return 0, fmt.Errorf("mining: no traces")
	}
	total := 0
	for i, ft := range traces {
		if !traces[0].SameSchema(ft) {
			return 0, fmt.Errorf("mining: trace %d has a different signal schema", i)
		}
		if ft.Len() == 0 {
			return 0, fmt.Errorf("mining: trace %d is empty", i)
		}
		total += ft.Len()
	}
	return total, nil
}

// Mine builds the proposition dictionary over a set of functional traces
// of the same model and rewrites each trace as a proposition trace.
// All traces must share the same signal schema. It is MineParallel at
// one worker: the same candidate reduction, on the calling goroutine.
func Mine(traces []*trace.Functional, cfg Config) (*Dictionary, []*PropTrace, error) {
	return MineParallel(context.Background(), traces, cfg, 1)
}

// CandidateAtoms enumerates the relational templates over a signal set:
// polarity atoms for 1-bit signals, zero tests for wider signals, and the
// three comparisons for every equal-width signal pair. It is the exact
// candidate enumeration the batch miner and the streaming engine both
// reduce. Atoms over one operation come out adjacent (True/False of a
// bit, Zero/NonZero of a vector, LT/EQ/GT of a pair), so
// Observer.ObserveBatch evaluates each such group once per row.
func CandidateAtoms(signals []trace.Signal) []Atom {
	var atoms []Atom
	for i, s := range signals {
		if s.Width == 1 {
			atoms = append(atoms, Atom{Kind: AtomTrue, A: i}, Atom{Kind: AtomFalse, A: i})
		} else {
			atoms = append(atoms, Atom{Kind: AtomZero, A: i}, Atom{Kind: AtomNonZero, A: i})
		}
	}
	for i := range signals {
		for j := i + 1; j < len(signals); j++ {
			if signals[i].Width != signals[j].Width || signals[i].Width == 1 {
				continue
			}
			atoms = append(atoms,
				Atom{Kind: AtomLT, A: i, B: j},
				Atom{Kind: AtomEQ, A: i, B: j},
				Atom{Kind: AtomGT, A: i, B: j})
		}
	}
	return atoms
}

// AtomStats accumulates the truth statistics of one candidate atom over
// the training traces. All fields are exact integer counts, so partial
// statistics computed per trace (or per atom, on different workers)
// combine into exactly the numbers a single sequential scan produces —
// the batch miner folds its per-trace partials, and the streaming front
// end (internal/stream) its per-session ones, into the global filtering
// decision this way.
type AtomStats struct {
	Held, Changes       int
	EverTrue, EverFalse bool
}

// Merge folds another partial accumulation (over a disjoint trace set)
// into st.
func (st *AtomStats) Merge(o AtomStats) {
	st.Held += o.Held
	st.Changes += o.Changes
	st.EverTrue = st.EverTrue || o.EverTrue
	st.EverFalse = st.EverFalse || o.EverFalse
}

// SelectIndices applies the support/stability thresholds and the MaxAtoms
// cap to precomputed statistics, returning the indices into candidates of
// the surviving atoms in their original order. The batch miner and the
// streaming engine share this exact decision path, so a streamed trace
// set keeps the byte-identical dictionary the batch flow would mine.
func SelectIndices(candidates []Atom, stats []AtomStats, total int, cfg Config) []int {
	if total == 0 {
		return nil
	}
	var kept []int
	var supports []float64
	for ci, a := range candidates {
		st := stats[ci]
		if !st.EverTrue {
			continue // never holds: carries no information
		}
		support := float64(st.Held) / float64(total)
		wide := a.Kind != AtomTrue && a.Kind != AtomFalse
		if wide {
			if support < cfg.MinSupport {
				continue
			}
			if st.EverFalse { // constant atoms have no run structure to test
				avgRun := float64(total) / float64(st.Changes+1)
				if avgRun < cfg.MinRunLength {
					continue
				}
			}
		}
		kept = append(kept, ci)
		supports = append(supports, support)
	}
	if len(kept) > MaxAtoms {
		// Keep the MaxAtoms highest-support atoms, preserving order.
		idx := make([]int, len(kept))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return supports[idx[a]] > supports[idx[b]] })
		keep := map[int]bool{}
		for _, i := range idx[:MaxAtoms] {
			keep[i] = true
		}
		var trimmed []int
		for i, ci := range kept {
			if keep[i] {
				trimmed = append(trimmed, ci)
			}
		}
		kept = trimmed
	}
	return kept
}

// Snapshot is the lossless serializable form of a Dictionary, used by the
// PSM model file format.
type Snapshot struct {
	Signals  []trace.Signal
	Atoms    []Atom
	PropKeys []uint64
}

// Snapshot extracts the dictionary's state.
func (d *Dictionary) Snapshot() Snapshot {
	return Snapshot{
		Signals:  append([]trace.Signal(nil), d.Signals...),
		Atoms:    append([]Atom(nil), d.Atoms...),
		PropKeys: append([]uint64(nil), d.propKeys...),
	}
}

// FromSnapshot rebuilds a Dictionary (including its signature index).
func FromSnapshot(s Snapshot) *Dictionary {
	d := &Dictionary{
		Signals:  append([]trace.Signal(nil), s.Signals...),
		Atoms:    append([]Atom(nil), s.Atoms...),
		propKeys: append([]uint64(nil), s.PropKeys...),
		index:    make(map[uint64]int, len(s.PropKeys)),
	}
	for i, k := range d.propKeys {
		d.index[k] = i
	}
	return d
}
