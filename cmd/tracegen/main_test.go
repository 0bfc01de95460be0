package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"psmkit/internal/logic"
	"psmkit/internal/stream"
	"psmkit/internal/trace"
)

// TestRunStream checks the -stream mode emits a decodable NDJSON session
// matching the captured trace: header schema with the IP's input names,
// one record per instant, powers attached.
func TestRunStream(t *testing.T) {
	const n = 200
	var buf bytes.Buffer
	if err := runStream(&buf, "RAM", n, 1, false, 0); err != nil {
		t.Fatal(err)
	}

	ft, pw, inputCols, err := capture("RAM", n, 1, false)
	if err != nil {
		t.Fatal(err)
	}

	sc := stream.NewScanner(&buf, 0)
	h, err := sc.ScanHeader()
	if err != nil {
		t.Fatal(err)
	}
	sigs, err := h.Schema()
	if err != nil {
		t.Fatal(err)
	}
	if len(sigs) != len(ft.Signals) {
		t.Fatalf("stream declares %d signals, capture has %d", len(sigs), len(ft.Signals))
	}
	for i := range sigs {
		if sigs[i] != ft.Signals[i] {
			t.Fatalf("signal %d: %+v, want %+v", i, sigs[i], ft.Signals[i])
		}
	}
	if len(h.Inputs) != len(inputCols) {
		t.Fatalf("stream declares %d inputs, capture has %d", len(h.Inputs), len(inputCols))
	}
	for i, c := range inputCols {
		if h.Inputs[i] != ft.Signals[c].Name {
			t.Fatalf("input %d: %q, want %q", i, h.Inputs[i], ft.Signals[c].Name)
		}
	}

	var (
		rec   stream.RawRecord
		arena logic.Arena
	)
	for i := 0; i < n; i++ {
		if err := sc.ScanRecord(&rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		arena.Reset()
		row, err := stream.DecodeRowArena(sigs, &rec, &arena, nil)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		for c := range row {
			if !row[c].Equal(ft.Value(i, c)) {
				t.Fatalf("record %d col %d: %s, want %s", i, c, row[c].Hex(), ft.Value(i, c).Hex())
			}
		}
		if rec.P == nil || *rec.P != pw.Values[i] {
			t.Fatalf("record %d power %v, want %v", i, rec.P, pw.Values[i])
		}
	}
	if err := sc.ScanRecord(&rec); err != io.EOF {
		t.Fatalf("after %d records got %v, want io.EOF", n, err)
	}
}

// TestRunStreamThrottled covers the -rate path (few records, high rate,
// so the test stays fast).
func TestRunStreamThrottled(t *testing.T) {
	var buf bytes.Buffer
	if err := runStream(&buf, "RAM", 5, 1, false, 500); err != nil {
		t.Fatal(err)
	}
	sc := stream.NewScanner(&buf, 0)
	if _, err := sc.ScanHeader(); err != nil {
		t.Fatal(err)
	}
	var rec stream.RawRecord
	count := 0
	for sc.ScanRecord(&rec) == nil {
		count++
	}
	if count != 5 {
		t.Fatalf("throttled stream emitted %d records, want 5", count)
	}
}

func TestRunStreamUnknownIP(t *testing.T) {
	if err := runStream(io.Discard, "NoSuchIP", 10, 1, false, 0); err == nil {
		t.Fatal("unknown IP must fail in -stream mode too")
	}
}

func TestRunWritesAllArtifacts(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "out")
	if err := run("RAM", 500, 3, false, prefix, true); err != nil {
		t.Fatal(err)
	}

	ff, err := os.Open(prefix + ".func.csv")
	if err != nil {
		t.Fatal(err)
	}
	ft, err := trace.ReadFunctionalCSV(ff)
	ff.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ft.Len() != 500 {
		t.Errorf("functional trace has %d instants", ft.Len())
	}

	pf, err := os.Open(prefix + ".power.csv")
	if err != nil {
		t.Fatal(err)
	}
	pw, err := trace.ReadPowerCSV(pf)
	pf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if pw.Len() != 500 {
		t.Errorf("power trace has %d instants", pw.Len())
	}

	vf, err := os.Open(prefix + ".vcd")
	if err != nil {
		t.Fatal(err)
	}
	vcd, err := trace.ReadVCD(vf)
	vf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if vcd.Len() != ft.Len() {
		t.Errorf("VCD rows %d, CSV rows %d", vcd.Len(), ft.Len())
	}
	// The VCD round trip reproduces the CSV values.
	for i := 0; i < ft.Len(); i++ {
		for c, s := range ft.Signals {
			vc := vcd.Column(s.Name)
			if vc < 0 || !vcd.Value(i, vc).Equal(ft.Value(i, c)) {
				t.Fatalf("instant %d signal %s differs between CSV and VCD", i, s.Name)
			}
		}
	}
}

func TestRunStallsOptionCamellia(t *testing.T) {
	dir := t.TempDir()
	if err := run("Camellia", 400, 3, true, filepath.Join(dir, "c"), false); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownIP(t *testing.T) {
	if err := run("Z80", 10, 1, false, filepath.Join(t.TempDir(), "x"), false); err == nil {
		t.Error("unknown IP accepted")
	}
}
