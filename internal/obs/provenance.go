package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"psmkit/internal/stats"
)

// MomentsRecord is one state's power-attribute summary at decision
// time. N/Sum/SumSq are the exact accumulator (enough to replay the
// decision bit for bit); Mean/Std are the derived ⟨μ, σ⟩ a reader
// wants to see, filled in from the sums by ProvenanceLog.Decisions.
type MomentsRecord struct {
	State int     `json:"state"`
	N     int     `json:"n"`
	Sum   float64 `json:"sum"`
	SumSq float64 `json:"sumsq"`
	Mean  float64 `json:"mean"`
	Std   float64 `json:"std"`
}

// MergeDecision is one mergeability verdict of Section IV-A: which
// state pair was compared, which statistical path decided (the Case and
// the named test), the computed statistic against its threshold, and
// the outcome. Phase tells where the comparison ran: "simplify"
// (adjacent states of chain Trace) or "join" (the pooled model's
// cross-chain collapse, Trace = -1). A t-test's Stat is its two-sided
// p-value, which ProvenanceLog.Decisions computes from T and DF.
type MergeDecision struct {
	Seq       int           `json:"seq"`
	Phase     string        `json:"phase"`
	Trace     int           `json:"trace"`
	A         MomentsRecord `json:"a"`
	B         MomentsRecord `json:"b"`
	Case      int           `json:"case"`
	Test      string        `json:"test"`
	Stat      float64       `json:"stat"`
	Threshold float64       `json:"threshold"`
	T         float64       `json:"t,omitempty"`
	// DF is a recorded t-test's degrees of freedom (0 for any other
	// test). It lives in memory only: Decisions turns it into Stat and
	// returns it 0, and the wire form has no df.
	DF     float64 `json:"-"`
	Accept bool    `json:"accept"`
}

// ProvenanceLog accumulates merge decisions. Recording is goroutine-
// safe; Decisions returns them in a canonical order independent of the
// recording interleaving, so a parallel batch run, a sequential run and
// the streaming engine produce identical logs over the same traces.
// The join side of that order is the one sequential collapse psm runs,
// logged or not: phase 1's decisions in its scan order, then the
// worklist fixpoint's — each rejected probe when it is made and each
// collapse, as one accepting decision, when it is performed. A verdict
// simplify replays rather than decides again still records, and a
// speculative accept that never collapses is not a decision.
type ProvenanceLog struct {
	mu sync.Mutex
	ds []MergeDecision
}

// NewProvenanceLog returns an empty log.
func NewProvenanceLog() *ProvenanceLog { return &ProvenanceLog{} }

// Record appends one decision. Nil-safe; Seq is assigned on append (in
// arrival order — Decisions re-numbers canonically).
func (l *ProvenanceLog) Record(d MergeDecision) {
	if l == nil {
		return
	}
	l.mu.Lock()
	d.Seq = len(l.ds)
	l.ds = append(l.ds, d)
	l.mu.Unlock()
}

// Len returns the number of decisions recorded (0 on nil).
func (l *ProvenanceLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ds)
}

// Decisions returns a canonically ordered copy: simplify decisions
// first, grouped by trace and kept in program order within each trace
// (each trace's simplify is sequential even when traces fan out), then
// the join decisions in program order (the collapse is sequential).
// Seq is re-numbered over the canonical order, so two runs over the
// same inputs return byte-identical logs regardless of worker count.
// The derived numbers are computed here, not when a decision is
// recorded: each t-test's p-value from its T and DF, and each state's
// ⟨μ, σ⟩ from its sums.
func (l *ProvenanceLog) Decisions() []MergeDecision {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := append([]MergeDecision(nil), l.ds...)
	l.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		pi, pj := phaseRank(out[i].Phase), phaseRank(out[j].Phase)
		if pi != pj {
			return pi < pj
		}
		if out[i].Trace != out[j].Trace {
			return out[i].Trace < out[j].Trace
		}
		return out[i].Seq < out[j].Seq
	})
	for i := range out {
		out[i].Seq = i
		out[i].derive()
	}
	return out
}

// derive fills in what the recorder leaves to the reader.
func (d *MergeDecision) derive() {
	if d.DF != 0 {
		d.Stat = stats.TwoSidedTPValue(d.T, d.DF)
		d.DF = 0
	}
	d.A.derive()
	d.B.derive()
}

func (m *MomentsRecord) derive() {
	s := stats.Moments{N: m.N, Sum: m.Sum, SumSq: m.SumSq}
	m.Mean, m.Std = s.Mean(), s.StdDev()
}

func phaseRank(phase string) int {
	if phase == "simplify" {
		return 0
	}
	return 1
}

// wireFloat is a float64 that survives JSON. A finite value encodes as
// the number encoding/json writes for a float64; ±Inf and NaN, which
// encoding/json rejects, encode as the strings "+Inf", "-Inf" and
// "NaN". A constant-power state tested against a different one gives
// t = ±Inf, and a poisoned power trace gives NaN moments.
type wireFloat float64

func (f wireFloat) MarshalJSON() ([]byte, error) {
	switch v := float64(f); {
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	default:
		return json.Marshal(v)
	}
}

func (f *wireFloat) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"NaN"`:
		*f = wireFloat(math.NaN())
	case `"+Inf"`:
		*f = wireFloat(math.Inf(1))
	case `"-Inf"`:
		*f = wireFloat(math.Inf(-1))
	default:
		var v float64
		if err := json.Unmarshal(b, &v); err != nil {
			return err
		}
		*f = wireFloat(v)
	}
	return nil
}

// momentsWire and decisionWire are the JSON forms of MomentsRecord and
// MergeDecision: the same fields in the same order, floats as
// wireFloats.
type momentsWire struct {
	State int       `json:"state"`
	N     int       `json:"n"`
	Sum   wireFloat `json:"sum"`
	SumSq wireFloat `json:"sumsq"`
	Mean  wireFloat `json:"mean"`
	Std   wireFloat `json:"std"`
}

type decisionWire struct {
	Seq       int         `json:"seq"`
	Phase     string      `json:"phase"`
	Trace     int         `json:"trace"`
	A         momentsWire `json:"a"`
	B         momentsWire `json:"b"`
	Case      int         `json:"case"`
	Test      string      `json:"test"`
	Stat      wireFloat   `json:"stat"`
	Threshold wireFloat   `json:"threshold"`
	T         wireFloat   `json:"t,omitempty"`
	Accept    bool        `json:"accept"`
}

func (m MomentsRecord) wire() momentsWire {
	return momentsWire{m.State, m.N, wireFloat(m.Sum), wireFloat(m.SumSq), wireFloat(m.Mean), wireFloat(m.Std)}
}

func (m momentsWire) record() MomentsRecord {
	return MomentsRecord{m.State, m.N, float64(m.Sum), float64(m.SumSq), float64(m.Mean), float64(m.Std)}
}

// MarshalJSON encodes the decision with non-finite statistics as
// strings (see wireFloat), so a log always encodes in full.
func (d MergeDecision) MarshalJSON() ([]byte, error) {
	return json.Marshal(decisionWire{d.Seq, d.Phase, d.Trace, d.A.wire(), d.B.wire(), d.Case, d.Test,
		wireFloat(d.Stat), wireFloat(d.Threshold), wireFloat(d.T), d.Accept})
}

// UnmarshalJSON is MarshalJSON's inverse.
func (d *MergeDecision) UnmarshalJSON(b []byte) error {
	var w decisionWire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*d = MergeDecision{w.Seq, w.Phase, w.Trace, w.A.record(), w.B.record(), w.Case, w.Test,
		float64(w.Stat), float64(w.Threshold), float64(w.T), 0, w.Accept}
	return nil
}

// WriteDecisions streams decisions as NDJSON, one decision per line —
// the wire format of both `psmgen -provenance` and psmd's
// GET /v1/provenance. Non-finite statistics encode as strings (see
// MergeDecision.MarshalJSON) and ReadDecisions restores them.
func WriteDecisions(w io.Writer, ds []MergeDecision) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, d := range ds {
		if err := enc.Encode(d); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadDecisions parses an NDJSON decision stream.
func ReadDecisions(r io.Reader) ([]MergeDecision, error) {
	dec := json.NewDecoder(r)
	var out []MergeDecision
	for {
		var d MergeDecision
		err := dec.Decode(&d)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("obs: provenance line %d: %w", len(out)+1, err)
		}
		out = append(out, d)
	}
}
