// This file is the zero-copy face of the wire format: a Scanner splits
// an NDJSON upload into lines inside one reusable buffer (no per-line
// allocation) and parses the canonical record shape emitted by
// Encoder.WriteRow — {"v":["<hex>",...],"p":<number>} with no escapes
// and ASCII values — with a strict fast path. Any deviation from that
// shape (escapes, non-ASCII, unknown or duplicate fields, whitespace
// oddities, number forms strconv rejects) drops the line to
// encoding/json, so every accepted stream decodes exactly as a plain
// bufio.Scanner + encoding/json decoder would and every rejected one
// fails with that decoder's error. FuzzWireScan pins that equivalence
// against such a decoder, kept in the package tests.

package stream

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"psmkit/internal/logic"
	"psmkit/internal/trace"
)

// Scanner reads one NDJSON trace stream without copying lines out of its
// read buffer. It mirrors bufio.Scanner's framing exactly: empty lines are
// skipped, a trailing '\r' is dropped, a line of maxLineBytes or more
// without a newline fails with bufio.ErrTooLong, and a final unterminated
// line is still delivered.
type Scanner struct {
	r          io.Reader
	buf        []byte
	start, end int
	max        int
	lines      int
	eof        bool
	err        error // sticky read error (not EOF)
	empties    int   // consecutive 0-byte nil-error reads

	slow record // fallback decode target, reused
}

// NewScanner wraps a reader. maxLineBytes ≤ 0 selects 1 MiB.
func NewScanner(r io.Reader, maxLineBytes int) *Scanner {
	if maxLineBytes <= 0 {
		maxLineBytes = 1 << 20
	}
	return &Scanner{r: r, max: maxLineBytes, buf: make([]byte, min(maxLineBytes, 64<<10))}
}

// Line returns the next non-empty line. The slice aliases the scanner's
// buffer and is valid only until the next Line/ScanRecord/ScanHeader
// call. io.EOF signals a clean end of stream. Like bufio.Scanner, a
// mid-stream read error surfaces only after every buffered line
// (including a final unterminated one) has been delivered.
func (s *Scanner) Line() ([]byte, error) {
	for {
		if i := bytes.IndexByte(s.buf[s.start:s.end], '\n'); i >= 0 {
			line := dropCR(s.buf[s.start : s.start+i])
			s.start += i + 1
			s.lines++
			if len(line) == 0 {
				continue
			}
			return line, nil
		}
		// No newline in the window: refuse to buffer past the line
		// bound (bufio.Scanner errors at a full max-sized buffer even
		// when the stream ends right after).
		if s.end-s.start >= s.max {
			return nil, fmt.Errorf("stream: line %d: %w", s.lines+1, bufio.ErrTooLong)
		}
		if s.eof {
			if s.end > s.start {
				line := dropCR(s.buf[s.start:s.end])
				s.start = s.end
				s.lines++
				if len(line) == 0 {
					continue
				}
				return line, nil
			}
			if s.err != nil {
				return nil, fmt.Errorf("stream: line %d: %w", s.lines+1, s.err)
			}
			return nil, io.EOF
		}
		s.fill()
	}
}

// fill reads more input, compacting or growing the buffer as needed. A
// read error stops further reads but leaves already-buffered data to be
// drained by Line.
func (s *Scanner) fill() {
	if s.end == len(s.buf) {
		if s.start > 0 {
			copy(s.buf, s.buf[s.start:s.end])
			s.end -= s.start
			s.start = 0
		} else {
			grown := 2 * len(s.buf)
			if grown > s.max {
				grown = s.max
			}
			nb := make([]byte, grown)
			copy(nb, s.buf[:s.end])
			s.buf = nb
		}
	}
	n, err := s.r.Read(s.buf[s.end:])
	s.end += n
	if err != nil {
		s.eof = true
		if err != io.EOF {
			s.err = err
		}
		return
	}
	if n > 0 {
		s.empties = 0
		return
	}
	// A reader that keeps returning (0, nil) would spin Line forever;
	// give up after the same bound bufio.Scanner uses.
	s.empties++
	if s.empties >= maxConsecutiveEmptyReads {
		s.eof = true
		s.err = io.ErrNoProgress
	}
}

// maxConsecutiveEmptyReads matches bufio.Scanner's tolerance for readers
// that return (0, nil) before the scan aborts with io.ErrNoProgress.
const maxConsecutiveEmptyReads = 100

func dropCR(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\r' {
		return line[:n-1]
	}
	return line
}

// Lines returns the number of physical lines consumed so far (the
// 1-based number of the line most recently returned). The shard ingest
// path stamps framed lines with it so worker-side parse errors carry
// the same line numbers ScanRecord's own accounting would.
func (s *Scanner) Lines() int { return s.lines }

// ScanHeader parses the stream's header line through encoding/json —
// headers are one line per stream, so they take no fast path.
func (s *Scanner) ScanHeader() (*Header, error) {
	line, err := s.Line()
	if err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("stream: empty stream (no header)")
		}
		return nil, err
	}
	var h Header
	if err := json.Unmarshal(line, &h); err != nil {
		return nil, fmt.Errorf("stream: line %d: bad header: %v", s.lines, err)
	}
	return &h, nil
}

// RawRecord is one scanned record. V holds the hex value tokens; on the
// fast path they alias the scanner's buffer and are valid only until the
// next scan call, so they must be decoded (DecodeRowArena) before
// scanning on. P points at the record's power value when present.
type RawRecord struct {
	V [][]byte
	P *float64

	p    float64  // storage behind P
	vbuf [][]byte // fallback copy-out storage, reused
}

// ScanRecord scans and parses the next record, returning io.EOF at end
// of stream. Behavior (accepted records, error text, line accounting) is
// exactly an encoding/json decode's of each line.
func (s *Scanner) ScanRecord(rec *RawRecord) error {
	line, err := s.Line()
	if err != nil {
		return err
	}
	if parseRecordFast(line, rec) {
		return nil
	}
	return s.slow.parse(line, s.lines, rec)
}

// record is a record line as encoding/json sees it — the slow
// path's decode target for anything structurally off the canonical
// shape.
type record struct {
	V []string `json:"v"`
	P *float64 `json:"p,omitempty"`
}

// parse decodes line through encoding/json into rec; lineno feeds the
// error text. r is reused scratch.
func (r *record) parse(line []byte, lineno int, rec *RawRecord) error {
	r.V = r.V[:0]
	r.P = nil
	if err := json.Unmarshal(line, r); err != nil {
		return fmt.Errorf("stream: line %d: bad record: %v", lineno, err)
	}
	rec.V = rec.V[:0]
	rec.vbuf = rec.vbuf[:0]
	for _, v := range r.V {
		rec.vbuf = append(rec.vbuf, []byte(v))
	}
	rec.V = append(rec.V, rec.vbuf...)
	if r.P != nil {
		rec.p = *r.P
		rec.P = &rec.p
	} else {
		rec.P = nil
	}
	return nil
}

// LineParser parses already-framed NDJSON record lines: the shard
// ingest path, where the HTTP handler only frames and copies lines and
// a shard worker parses them off its queue. It runs the Scanner's
// strict fast path with the same encoding/json fallback, so an
// accepted line decodes exactly as Scanner.ScanRecord would and a
// rejected one fails with the same error shape. lineno is the record's
// 1-based position in its upload, feeding the error text the way the
// Scanner's line accounting does.
type LineParser struct {
	slow record // fallback decode target, reused
}

// Parse parses one record line into rec (see Scanner.ScanRecord for the
// aliasing rules: rec.V is valid only until the next Parse call on the
// same line buffer).
func (p *LineParser) Parse(line []byte, lineno int, rec *RawRecord) error {
	if parseRecordFast(line, rec) {
		return nil
	}
	return p.slow.parse(line, lineno, rec)
}

// parseRecordFast recognizes the canonical record serialization. It
// returns false — deferring to encoding/json — on anything else; it must
// never accept a line json would reject or parse one differently.
func parseRecordFast(line []byte, rec *RawRecord) bool {
	p := parser{b: line}
	p.ws()
	if !p.lit('{') {
		return false
	}
	p.ws()
	if !p.key('v') {
		return false
	}
	p.ws()
	if !p.lit('[') {
		return false
	}
	rec.V = rec.V[:0]
	p.ws()
	if !p.lit(']') {
		for {
			tok, ok := p.hexString()
			if !ok {
				return false
			}
			rec.V = append(rec.V, tok)
			p.ws()
			if p.lit(',') {
				p.ws()
				continue
			}
			if p.lit(']') {
				break
			}
			return false
		}
	}
	p.ws()
	if p.lit('}') {
		p.ws()
		if !p.done() {
			return false
		}
		rec.P = nil
		return true
	}
	if !p.lit(',') {
		return false
	}
	p.ws()
	if !p.key('p') {
		return false
	}
	p.ws()
	num, ok := p.number()
	if !ok {
		return false
	}
	p.ws()
	if !p.lit('}') {
		return false
	}
	p.ws()
	if !p.done() {
		return false
	}
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		// Overflow/underflow: json classifies these as unmarshal
		// errors; let it.
		return false
	}
	rec.p = f
	rec.P = &rec.p
	return true
}

// parser is a cursor over one line for the fast record path.
type parser struct {
	b []byte
	i int
}

// ws skips JSON whitespace (the exact set encoding/json accepts).
func (p *parser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\r', '\n':
			p.i++
		default:
			return
		}
	}
}

func (p *parser) lit(c byte) bool {
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

func (p *parser) done() bool { return p.i == len(p.b) }

// key matches a one-letter field key `"x":`.
func (p *parser) key(name byte) bool {
	if p.i+3 < len(p.b) && p.b[p.i] == '"' && p.b[p.i+1] == name && p.b[p.i+2] == '"' {
		p.i += 3
		p.ws()
		return p.lit(':')
	}
	return false
}

// hexString matches a quoted string of plain ASCII characters — no
// escapes, no control bytes, nothing ≥ 0x80 — returning the unquoted
// token. Those are exactly the strings whose JSON decoding is the
// identity, so aliasing the raw bytes is safe.
func (p *parser) hexString() ([]byte, bool) {
	if !p.lit('"') {
		return nil, false
	}
	start := p.i
	for p.i < len(p.b) {
		c := p.b[p.i]
		if c == '"' {
			tok := p.b[start:p.i]
			p.i++
			return tok, true
		}
		if c < 0x20 || c == '\\' || c >= 0x80 {
			return nil, false
		}
		p.i++
	}
	return nil, false
}

// number matches the exact JSON number grammar and returns its bytes.
func (p *parser) number() ([]byte, bool) {
	start := p.i
	p.lit('-')
	// int part: '0' or [1-9][0-9]*
	if p.lit('0') {
		// ok
	} else {
		if p.i >= len(p.b) || p.b[p.i] < '1' || p.b[p.i] > '9' {
			return nil, false
		}
		for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
			p.i++
		}
	}
	if p.lit('.') {
		if !p.digits() {
			return nil, false
		}
	}
	if p.i < len(p.b) && (p.b[p.i] == 'e' || p.b[p.i] == 'E') {
		p.i++
		if p.i < len(p.b) && (p.b[p.i] == '+' || p.b[p.i] == '-') {
			p.i++
		}
		if !p.digits() {
			return nil, false
		}
	}
	return p.b[start:p.i], true
}

func (p *parser) digits() bool {
	n := 0
	for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
		p.i++
		n++
	}
	return n > 0
}

// DecodeRowArena parses a raw record's valuation against a schema into
// arena-backed vectors, appending them to row (pass row[:0] to reuse a
// buffer). It validates the value count against the schema and parses
// each value as a hex literal of its signal's width (logic.ParseHex
// diagnostics).
func DecodeRowArena(sigs []trace.Signal, rec *RawRecord, a *logic.Arena, row []logic.Vector) ([]logic.Vector, error) {
	if len(rec.V) != len(sigs) {
		return nil, fmt.Errorf("stream: record has %d values, schema %d signals", len(rec.V), len(sigs))
	}
	for i, s := range rec.V {
		v, err := a.ParseHex(sigs[i].Width, s)
		if err != nil {
			return nil, fmt.Errorf("stream: signal %s: %v", sigs[i].Name, err)
		}
		row = append(row, v)
	}
	return row, nil
}
