// Package stream is the online face of the PSM flow: where the batch
// pipeline (internal/pipeline) mines, generates, simplifies and joins over
// a fixed trace set, this package ingests functional/power records one at
// a time — many concurrent sessions, one per trace being captured — and
// maintains a live model that is byte-identical to what the batch flow
// would produce over the same completed traces.
//
// Five files:
//
//	wire.go         — the NDJSON record format sessions are streamed in
//	                  (shared with cmd/tracegen -stream and cmd/psmd)
//	                  and its Encoder;
//	scan.go         — the zero-copy Scanner and LineParser that decode it;
//	chain.go        — a completed session's chain: its signature runs
//	                  expand into the proposition trace the batch
//	                  PSMGenerator (psm.Generate) turns into `p U q` /
//	                  `p X q` power states;
//	engine.go       — the incremental miner + chain builder + join fold
//	                  (psm.Joiner) that turns completed sessions into the
//	                  live model;
//	shard_export.go — the accessors a shard.Coordinator runs engines
//	                  through.
package stream

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"

	"psmkit/internal/logic"
	"psmkit/internal/trace"
)

// SignalDecl declares one trace signal in a stream header.
type SignalDecl struct {
	Name  string `json:"name"`
	Width int    `json:"width"`
}

// Header is the first NDJSON line of a trace stream: the signal schema
// and, optionally, the primary-input signal names (for the calibration
// regression and the power estimator).
type Header struct {
	Signals []SignalDecl `json:"signals"`
	Inputs  []string     `json:"inputs,omitempty"`
}

// Schema converts the declarations to the trace-layer signal set.
func (h *Header) Schema() ([]trace.Signal, error) {
	if len(h.Signals) == 0 {
		return nil, fmt.Errorf("stream: header declares no signals")
	}
	sigs := make([]trace.Signal, len(h.Signals))
	for i, d := range h.Signals {
		if d.Name == "" || d.Width <= 0 {
			return nil, fmt.Errorf("stream: bad signal declaration %q width %d", d.Name, d.Width)
		}
		sigs[i] = trace.Signal{Name: d.Name, Width: d.Width}
	}
	return sigs, nil
}

// HeaderFor builds the header for a schema and input column set.
func HeaderFor(sigs []trace.Signal, inputCols []int) Header {
	var h Header
	for _, s := range sigs {
		h.Signals = append(h.Signals, SignalDecl{Name: s.Name, Width: s.Width})
	}
	for _, c := range inputCols {
		h.Inputs = append(h.Inputs, sigs[c].Name)
	}
	return h
}

// Encoder writes the NDJSON stream (cmd/tracegen -stream, tests).
type Encoder struct {
	w   *bufio.Writer
	buf []byte
}

// NewEncoder wraps a writer; call Flush when done.
func NewEncoder(w io.Writer) *Encoder { return &Encoder{w: bufio.NewWriter(w)} }

func (e *Encoder) writeJSON(v interface{}) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if _, err := e.w.Write(b); err != nil {
		return err
	}
	return e.w.WriteByte('\n')
}

// WriteHeader emits the header line.
func (e *Encoder) WriteHeader(h Header) error { return e.writeJSON(h) }

// WriteRow emits one record from a valuation row and its power: the
// line {"v":["<hex>",...],"p":<number>}, one hex-encoded value per
// schema signal (trace CSV encoding, logic.ParseHex) and the reference
// dynamic power. The power is required when training (POST /v1/traces)
// and optional when estimating (POST /v1/estimate — present values
// enable the MRE figure). The line is assembled in a reused buffer,
// byte-identical to marshalling the record with encoding/json (hex
// needs no escaping; appendJSONFloat is the encoding/json float form)
// — pinned by TestWriteRowMatchesMarshal.
func (e *Encoder) WriteRow(row []logic.Vector, power float64) error {
	b := append(e.buf[:0], `{"v":[`...)
	for i, v := range row {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = v.AppendHex(b)
		b = append(b, '"')
	}
	b = append(b, `],"p":`...)
	b, err := appendJSONFloat(b, power)
	if err != nil {
		e.buf = b
		return err
	}
	b = append(b, '}', '\n')
	e.buf = b
	_, werr := e.w.Write(b)
	return werr
}

// appendJSONFloat appends a float64 exactly as encoding/json renders it:
// shortest representation, 'f' form except for very small or very large
// magnitudes, with the exponent's leading zero stripped. Non-finite
// values are rejected like json.Marshal rejects them.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{
			Value: reflect.ValueOf(f),
			Str:   strconv.FormatFloat(f, 'g', -1, 64),
		}
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// Flush drains the buffered writer.
func (e *Encoder) Flush() error { return e.w.Flush() }
