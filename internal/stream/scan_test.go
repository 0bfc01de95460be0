package stream

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"psmkit/internal/logic"
	"psmkit/internal/trace"
)

// drained is a stream's full observable decode: the header (or its
// error), every record, and the terminal error text ("" for clean EOF).
type drained struct {
	header    *Header
	headerErr string
	records   []Record
	finalErr  string
}

func drainDecoder(input []byte, max int) drained {
	var d drained
	dec := NewDecoder(bytes.NewReader(input), max)
	h, err := dec.ReadHeader()
	if err != nil {
		d.headerErr = err.Error()
		return d
	}
	d.header = h
	var rec Record
	for {
		err := dec.Next(&rec)
		if err == io.EOF {
			return d
		}
		if err != nil {
			d.finalErr = err.Error()
			return d
		}
		cp := Record{V: append([]string(nil), rec.V...)}
		if rec.P != nil {
			p := *rec.P
			cp.P = &p
		}
		d.records = append(d.records, cp)
	}
}

func drainScanner(input []byte, max int) drained {
	var d drained
	sc := NewScanner(bytes.NewReader(input), max)
	h, err := sc.ScanHeader()
	if err != nil {
		d.headerErr = err.Error()
		return d
	}
	d.header = h
	var raw RawRecord
	for {
		err := sc.ScanRecord(&raw)
		if err == io.EOF {
			return d
		}
		if err != nil {
			d.finalErr = err.Error()
			return d
		}
		cp := Record{V: make([]string, len(raw.V))}
		for i, v := range raw.V {
			cp.V[i] = string(v)
		}
		if raw.P != nil {
			p := *raw.P
			cp.P = &p
		}
		d.records = append(d.records, cp)
	}
}

func sameDrain(a, b drained) string {
	if a.headerErr != b.headerErr {
		return fmt.Sprintf("header errors differ: %q vs %q", a.headerErr, b.headerErr)
	}
	if (a.header == nil) != (b.header == nil) {
		return "header presence differs"
	}
	if a.header != nil {
		ha, _ := json.Marshal(a.header)
		hb, _ := json.Marshal(b.header)
		if !bytes.Equal(ha, hb) {
			return fmt.Sprintf("headers differ: %s vs %s", ha, hb)
		}
	}
	if len(a.records) != len(b.records) {
		return fmt.Sprintf("record counts differ: %d vs %d", len(a.records), len(b.records))
	}
	for i := range a.records {
		ra, rb := a.records[i], b.records[i]
		if len(ra.V) != len(rb.V) {
			return fmt.Sprintf("record %d: value counts differ", i)
		}
		for j := range ra.V {
			if ra.V[j] != rb.V[j] {
				return fmt.Sprintf("record %d value %d: %q vs %q", i, j, ra.V[j], rb.V[j])
			}
		}
		if (ra.P == nil) != (rb.P == nil) {
			return fmt.Sprintf("record %d: power presence differs", i)
		}
		if ra.P != nil && math.Float64bits(*ra.P) != math.Float64bits(*rb.P) {
			return fmt.Sprintf("record %d: power bits differ: %v vs %v", i, *ra.P, *rb.P)
		}
	}
	if a.finalErr != b.finalErr {
		return fmt.Sprintf("final errors differ: %q vs %q", a.finalErr, b.finalErr)
	}
	return ""
}

// checkScanParity asserts the Scanner decodes a stream exactly as the
// Decoder does — records, error text, everything.
func checkScanParity(t *testing.T, input []byte, max int) {
	t.Helper()
	if diff := sameDrain(drainDecoder(input, max), drainScanner(input, max)); diff != "" {
		t.Fatalf("scanner/decoder divergence on %q (max %d): %s", input, max, diff)
	}
}

const parityHeader = `{"signals":[{"name":"a","width":8},{"name":"b","width":64}],"inputs":["a"]}`

func TestScannerMatchesDecoder(t *testing.T) {
	cases := []string{
		// Canonical streams (fast path).
		parityHeader + "\n" + `{"v":["ff","deadbeefcafebabe"],"p":0.0125}` + "\n",
		parityHeader + "\n" + `{"v":["0f","0000000000000001"],"p":1}` + "\n" + `{"v":["f0","ffffffffffffffff"],"p":-2.5e-3}` + "\n",
		// Estimate-style records without power.
		parityHeader + "\n" + `{"v":["ff","0"]}` + "\n",
		// Empty array.
		parityHeader + "\n" + `{"v":[],"p":1}` + "\n",
		// CRLF endings, blank lines, unterminated final line.
		parityHeader + "\r\n\r\n" + `{"v":["ff","0"],"p":3}` + "\r\n\n\n" + `{"v":["00","1"],"p":4}`,
		// Whitespace inside records (still valid JSON; fast path or fallback).
		parityHeader + "\n" + ` { "v" : [ "ff" , "0" ] , "p" : 2 } ` + "\n",
		// Escapes and unicode force the fallback but must still decode.
		parityHeader + "\n" + `{"v":["ff","0"],"p":1}` + "\n",
		parityHeader + "\n" + `{"p":1,"v":["ff","0"]}` + "\n",
		parityHeader + "\n" + `{"v":["ff","0"],"p":1,"x":"y"}` + "\n",
		parityHeader + "\n" + `null` + "\n",
		// Malformed records.
		parityHeader + "\n" + `{"v":["ff","0"],"p":}` + "\n",
		parityHeader + "\n" + `{"v":["ff","0"],"p":1} trailing` + "\n",
		parityHeader + "\n" + `{"v":["ff","0"],"p":01}` + "\n",
		parityHeader + "\n" + `{"v":["ff","0"],"p":1e999}` + "\n",
		parityHeader + "\n" + `{"v":["ff","0"],"p":"1"}` + "\n",
		parityHeader + "\n" + `true` + "\n",
		parityHeader + "\n" + "\x00" + "\n",
		// Header problems.
		"", "\n\n", "not json\n",
		`{"signals":[]}` + "\n",
		// Number edge forms on the fast path.
		parityHeader + "\n" + `{"v":["ff","0"],"p":-0}` + "\n",
		parityHeader + "\n" + `{"v":["ff","0"],"p":1.25e+10}` + "\n",
		parityHeader + "\n" + `{"v":["ff","0"],"p":5E-7}` + "\n",
	}
	for _, c := range cases {
		checkScanParity(t, []byte(c), 0)
		checkScanParity(t, []byte(c), 100)
	}
}

func TestScannerLineTooLong(t *testing.T) {
	long := parityHeader + "\n" + `{"v":["` + strings.Repeat("f", 4096) + `","0"],"p":1}` + "\n"
	for _, max := range []int{16, 100, 1024, 4096} {
		checkScanParity(t, []byte(long), max)
	}
	// A line of exactly max bytes (without the newline) must fail like
	// bufio; one byte less must pass.
	rec := `{"v":["ff","0"],"p":1}`
	input := []byte(parityHeader + "\n" + rec + "\n")
	checkScanParity(t, input, len(rec))
	checkScanParity(t, input, len(rec)+1)
}

// failingReader returns its payload, then a non-EOF error.
type failingReader struct {
	data []byte
	err  error
	off  int
}

func (f *failingReader) Read(p []byte) (int, error) {
	if f.off >= len(f.data) {
		return 0, f.err
	}
	n := copy(p, f.data[f.off:])
	f.off += n
	return n, nil
}

func TestScannerMidStreamReadError(t *testing.T) {
	payload := []byte(parityHeader + "\n" + `{"v":["ff","0"],"p":1}` + "\n" + `{"v":["00","1"]`)
	boom := fmt.Errorf("connection reset")

	// Decoder oracle.
	dec := NewDecoder(&failingReader{data: payload, err: boom}, 0)
	if _, err := dec.ReadHeader(); err != nil {
		t.Fatal(err)
	}
	var rec Record
	var decRecs []int
	var decErr error
	for {
		err := dec.Next(&rec)
		if err != nil {
			decErr = err
			break
		}
		decRecs = append(decRecs, len(rec.V))
	}

	sc := NewScanner(&failingReader{data: payload, err: boom}, 0)
	if _, err := sc.ScanHeader(); err != nil {
		t.Fatal(err)
	}
	var raw RawRecord
	var scRecs []int
	var scErr error
	for {
		err := sc.ScanRecord(&raw)
		if err != nil {
			scErr = err
			break
		}
		scRecs = append(scRecs, len(raw.V))
	}
	if len(decRecs) != len(scRecs) {
		t.Fatalf("record counts differ: %v vs %v", decRecs, scRecs)
	}
	if decErr == nil || scErr == nil || decErr.Error() != scErr.Error() {
		t.Fatalf("errors differ: %v vs %v", decErr, scErr)
	}
}

// stallingReader yields its payload, then returns (0, nil) forever — a
// misbehaving reader that makes no progress without signalling an error.
type stallingReader struct {
	data []byte
	off  int
}

func (s *stallingReader) Read(p []byte) (int, error) {
	if s.off >= len(s.data) {
		return 0, nil
	}
	n := copy(p, s.data[s.off:])
	s.off += n
	return n, nil
}

func TestScannerNoProgressReader(t *testing.T) {
	// Buffered lines must still be delivered before the scan aborts with
	// io.ErrNoProgress, matching bufio.Scanner's empty-read tolerance.
	payload := []byte(parityHeader + "\n" + `{"v":["ff","0"],"p":1}` + "\n")
	sc := NewScanner(&stallingReader{data: payload}, 0)
	if _, err := sc.ScanHeader(); err != nil {
		t.Fatal(err)
	}
	var raw RawRecord
	if err := sc.ScanRecord(&raw); err != nil {
		t.Fatal(err)
	}
	err := sc.ScanRecord(&raw)
	if !errors.Is(err, io.ErrNoProgress) {
		t.Fatalf("stalled reader: got %v, want io.ErrNoProgress", err)
	}
	// The error is sticky.
	if err := sc.ScanRecord(&raw); !errors.Is(err, io.ErrNoProgress) {
		t.Fatalf("second scan after stall: got %v, want io.ErrNoProgress", err)
	}
}

func TestWriteRowMatchesMarshal(t *testing.T) {
	rows := [][]logic.Vector{
		{},
		{logic.MustParseHex(8, "ff")},
		{logic.MustParseHex(8, "0f"), logic.MustParseHex(64, "deadbeefcafebabe"), logic.MustParseHex(3, "5")},
		{logic.MustParseHex(130, "3ffffffffffffffffffffffffffffffff")},
	}
	powers := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.0123456789123456789, 1e-6, 9.999e-7, 1e21, 1.5e21,
		-2.5e-3, 123456789.123456789, math.SmallestNonzeroFloat64, math.MaxFloat64, 5e-324,
	}
	for _, row := range rows {
		for _, p := range powers {
			var got bytes.Buffer
			e := NewEncoder(&got)
			if err := e.WriteRow(row, p); err != nil {
				t.Fatalf("WriteRow(%v): %v", p, err)
			}
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			rec := Record{V: make([]string, len(row)), P: &p}
			for i, v := range row {
				rec.V[i] = v.Hex()
			}
			want, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, '\n')
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("WriteRow(power=%v) = %q, json.Marshal = %q", p, got.Bytes(), want)
			}
		}
	}
	// Non-finite powers must fail exactly like json.Marshal.
	for _, p := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		var buf bytes.Buffer
		e := NewEncoder(&buf)
		err := e.WriteRow(nil, p)
		_, wantErr := json.Marshal(Record{V: []string{}, P: &p})
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Fatalf("WriteRow(%v) err %v, json.Marshal err %v", p, err, wantErr)
		}
	}
}

func TestDecodeRowArenaMatchesDecodeRow(t *testing.T) {
	sigs := []trace.Signal{{Name: "a", Width: 8}, {Name: "b", Width: 64}}
	var a logic.Arena
	cases := []struct{ v []string }{
		{[]string{"ff", "deadbeefcafebabe"}},
		{[]string{"0x0f", "1_2"}},
		{[]string{"ff"}},       // wrong arity
		{[]string{"zz", "0"}},  // bad digit
		{[]string{"", "0"}},    // empty literal
		{[]string{"fff", "0"}}, // truncates
	}
	for _, c := range cases {
		rec := Record{V: c.v}
		want, wantErr := DecodeRow(sigs, &rec)

		raw := RawRecord{}
		for _, s := range c.v {
			raw.V = append(raw.V, []byte(s))
		}
		a.Reset()
		got, gotErr := DecodeRowArena(sigs, &raw, &a, nil)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%v: err %v vs %v", c.v, wantErr, gotErr)
		}
		if wantErr != nil {
			if wantErr.Error() != gotErr.Error() {
				t.Fatalf("%v: error text %q vs %q", c.v, wantErr, gotErr)
			}
			continue
		}
		for i := range want {
			if !want[i].Equal(got[i]) {
				t.Fatalf("%v: value %d: %v vs %v", c.v, i, want[i], got[i])
			}
		}
	}
}

// TestAppendBatchMatchesSequential pins the batched ingest path against
// per-record Append: identical runs, powers, input-HD samples and
// counters for the same rows, across any batch split.
func TestAppendBatchMatchesSequential(t *testing.T) {
	sigs := []trace.Signal{{Name: "x", Width: 8}, {Name: "y", Width: 16}, {Name: "clk", Width: 1}}
	cfg := DefaultConfig()
	cfg.Inputs = []string{"x", "clk"}

	mkRows := func(n int) ([][]logic.Vector, []float64) {
		rng := uint64(42)
		next := func() uint64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng
		}
		var rows [][]logic.Vector
		var powers []float64
		for i := 0; i < n; i++ {
			rows = append(rows, []logic.Vector{
				logic.FromUint64(8, next()%7), // small range to exercise RLE runs
				logic.FromUint64(16, next()%3),
				logic.FromUint64(1, next()),
			})
			powers = append(powers, float64(next()%1000)/997)
		}
		return rows, powers
	}
	rows, powers := mkRows(257)

	seq := NewEngine(cfg)
	sSeq, err := seq.Open(sigs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if err := sSeq.Append(rows[i], powers[i]); err != nil {
			t.Fatal(err)
		}
	}

	for _, batchSize := range []int{1, 2, 64, 100, 257, 300} {
		bat := NewEngine(cfg)
		sBat, err := bat.Open(sigs)
		if err != nil {
			t.Fatal(err)
		}
		for lo := 0; lo < len(rows); lo += batchSize {
			hi := lo + batchSize
			if hi > len(rows) {
				hi = len(rows)
			}
			if err := sBat.AppendBatch(rows[lo:hi], powers[lo:hi]); err != nil {
				t.Fatal(err)
			}
		}
		if sBat.Rows() != sSeq.Rows() {
			t.Fatalf("batch %d: rows %d vs %d", batchSize, sBat.Rows(), sSeq.Rows())
		}
		a, b := sSeq.data, sBat.data
		if len(a.runs) != len(b.runs) {
			t.Fatalf("batch %d: run counts %d vs %d", batchSize, len(a.runs), len(b.runs))
		}
		for i := range a.runs {
			if a.runs[i].n != b.runs[i].n || !equalWords(a.runs[i].sig, b.runs[i].sig) {
				t.Fatalf("batch %d: run %d differs", batchSize, i)
			}
		}
		for i := range a.power {
			if math.Float64bits(a.power[i]) != math.Float64bits(b.power[i]) {
				t.Fatalf("batch %d: power %d differs", batchSize, i)
			}
			if a.hd[i] != b.hd[i] {
				t.Fatalf("batch %d: hd %d differs", batchSize, i)
			}
		}
		// Closed sessions must fold identical statistics.
		if _, err := sBat.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sSeq.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAppendBatchAtomicOnError: a batch with a bad row must leave the
// session untouched.
func TestAppendBatchAtomicOnError(t *testing.T) {
	sigs := []trace.Signal{{Name: "x", Width: 8}}
	e := NewEngine(DefaultConfig())
	s, err := e.Open(sigs)
	if err != nil {
		t.Fatal(err)
	}
	good := []logic.Vector{logic.FromUint64(8, 1)}
	bad := []logic.Vector{logic.FromUint64(4, 1)}
	if err := s.AppendBatch([][]logic.Vector{good, bad}, []float64{1, 2}); err == nil {
		t.Fatal("batch with a width-mismatched row did not fail")
	}
	if s.Rows() != 0 {
		t.Fatalf("failed batch appended %d rows", s.Rows())
	}
	if err := s.AppendBatch([][]logic.Vector{good}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if s.Rows() != 1 {
		t.Fatalf("rows = %d", s.Rows())
	}
}
