package stream

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"

	"psmkit/internal/logic"
	"psmkit/internal/mining"
	"psmkit/internal/obs"
	"psmkit/internal/psm"
	"psmkit/internal/trace"
)

// This file keeps the historical ingest path as the oracle of the
// production one: the bufio/encoding-json Decoder with per-record
// DecodeRow allocation (FuzzWireScan and TestScannerMatchesDecoder hold
// the zero-copy Scanner to it) and the per-record Session.Append
// (TestAppendBatchMatchesSequential holds AppendBatch to it). The
// parity suites stream through Append, and TestIngestGate times both
// paths. Engine.Provenance, the single-engine audit replay, is the
// oracle of shard.Coordinator.Provenance.

// Record is one record line as the Decoder decodes it: the
// hex-encoded valuation of every schema signal and the optional
// reference power. It is the Scanner's encoding/json fallback target,
// so both decoders report encoding/json errors with the same text.
type Record = record

// DecodeRow parses a record's valuation against a schema.
func DecodeRow(sigs []trace.Signal, rec *Record) ([]logic.Vector, error) {
	if len(rec.V) != len(sigs) {
		return nil, fmt.Errorf("stream: record has %d values, schema %d signals", len(rec.V), len(sigs))
	}
	row := make([]logic.Vector, len(sigs))
	for i, s := range rec.V {
		v, err := logic.ParseHex(sigs[i].Width, s)
		if err != nil {
			return nil, fmt.Errorf("stream: signal %s: %v", sigs[i].Name, err)
		}
		row[i] = v
	}
	return row, nil
}

// Decoder reads one NDJSON trace stream: a Header line followed by Record
// lines. Lines longer than maxLineBytes fail the decode (memory bound on
// untrusted uploads).
type Decoder struct {
	sc    *bufio.Scanner
	lines int
}

// NewDecoder wraps a reader. maxLineBytes ≤ 0 selects 1 MiB.
func NewDecoder(r io.Reader, maxLineBytes int) *Decoder {
	if maxLineBytes <= 0 {
		maxLineBytes = 1 << 20
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, min(maxLineBytes, 64<<10)), maxLineBytes)
	return &Decoder{sc: sc}
}

// next returns the next non-empty line.
func (d *Decoder) next() ([]byte, error) {
	for d.sc.Scan() {
		d.lines++
		line := d.sc.Bytes()
		if len(line) == 0 {
			continue
		}
		return line, nil
	}
	if err := d.sc.Err(); err != nil {
		return nil, fmt.Errorf("stream: line %d: %w", d.lines+1, err)
	}
	return nil, io.EOF
}

// ReadHeader parses the stream's header line.
func (d *Decoder) ReadHeader() (*Header, error) {
	line, err := d.next()
	if err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("stream: empty stream (no header)")
		}
		return nil, err
	}
	var h Header
	if err := json.Unmarshal(line, &h); err != nil {
		return nil, fmt.Errorf("stream: line %d: bad header: %v", d.lines, err)
	}
	return &h, nil
}

// Next parses the next record, returning io.EOF at end of stream.
func (d *Decoder) Next(rec *Record) error {
	line, err := d.next()
	if err != nil {
		return err
	}
	rec.V = rec.V[:0]
	rec.P = nil
	if err := json.Unmarshal(line, rec); err != nil {
		return fmt.Errorf("stream: line %d: bad record: %v", d.lines, err)
	}
	return nil
}

// Append consumes one instant: the valuation row and its reference power.
// The row is reduced to its candidate bitset, power and input-HD samples
// and is not retained.
func (s *Session) Append(row []logic.Vector, power float64) error {
	if s.done {
		return fmt.Errorf("stream: append to a closed session")
	}
	if max := s.e.cfg.MaxRecords; max > 0 && s.data.rows >= max {
		return fmt.Errorf("stream: session exceeds the %d-record limit", max)
	}
	if len(row) != len(s.schema) {
		return fmt.Errorf("stream: row has %d values, schema %d signals", len(row), len(s.schema))
	}
	for i, v := range row {
		if v.Width() != s.schema[i].Width {
			return fmt.Errorf("stream: signal %q width %d, value width %d", s.schema[i].Name, s.schema[i].Width, v.Width())
		}
	}

	sig := s.obs.ObserveBatch([][]logic.Vector{row}, nil)
	d := s.data
	if n := len(d.runs); n > 0 && equalWords(d.runs[n-1].sig, sig) {
		d.runs[n-1].n++
	} else {
		d.runs = append(d.runs, sigRun{sig: sig, n: 1})
	}
	d.power = append(d.power, power)

	var hd uint32
	if s.prev != nil {
		for _, c := range s.e.inputCols {
			hd += uint32(row[c].HammingDistance(s.prev[c]))
		}
	}
	d.hd = append(d.hd, hd)
	if s.prev == nil {
		s.prev = make([]logic.Vector, len(row))
	}
	copy(s.prev, row)

	d.rows++
	s.e.mRecords.Inc()
	return nil
}

// Provenance is the single-engine audit replay, the oracle of
// shard.Coordinator.Provenance: every mergeability decision of the
// engine's current model, re-derived by replaying the full build (fresh
// dictionary, per-session simplify, one psm.JoinCtx over every chain)
// with a recording merger attached. It follows the exact batch order
// (sessions in completion order, one sequential join), so the decisions
// equal `psmgen -provenance` over the same traces.
func (e *Engine) Provenance(ctx context.Context) ([]obs.MergeDecision, error) {
	e.mu.Lock()
	completed := len(e.completed)
	idx := mining.SelectIndices(e.candidates, e.stats, e.totalRows, e.cfg.Mining)
	e.mu.Unlock()
	if completed == 0 {
		return nil, fmt.Errorf("stream: %w", ErrNoTraces)
	}
	if len(idx) == 0 {
		return nil, fmt.Errorf("stream: no atomic proposition survived filtering")
	}
	kept := make([]mining.Atom, len(idx))
	for i, ci := range idx {
		kept[i] = e.candidates[ci]
	}
	log := obs.NewProvenanceLog()
	ctx = obs.WithProvenance(ctx, log)
	chains, err := e.ProvenanceChains(ctx, idx, mining.NewDictionary(e.schema, kept), 0, completed)
	if err != nil {
		return nil, err
	}
	psm.JoinCtx(ctx, chains, e.cfg.Merge)
	return log.Decisions(), nil
}
