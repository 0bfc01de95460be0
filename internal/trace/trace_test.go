package trace

import (
	"bytes"
	"strings"
	"testing"

	"psmkit/internal/hdl"
	"psmkit/internal/ip"
	"psmkit/internal/logic"
)

func sig2() []Signal {
	return []Signal{{Name: "a", Width: 8}, {Name: "b", Width: 16}}
}

func TestAppendAndAccess(t *testing.T) {
	f := NewFunctional(sig2())
	f.Append([]logic.Vector{logic.FromUint64(8, 1), logic.FromUint64(16, 2)})
	f.Append([]logic.Vector{logic.FromUint64(8, 3), logic.FromUint64(16, 4)})
	if f.Len() != 2 {
		t.Fatalf("Len = %d", f.Len())
	}
	if got := f.Value(1, 0).Uint64(); got != 3 {
		t.Errorf("Value(1,0) = %d", got)
	}
	if f.Column("b") != 1 || f.Column("zz") != -1 {
		t.Error("Column lookup wrong")
	}
}

func TestAppendValidates(t *testing.T) {
	f := NewFunctional(sig2())
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-width row accepted")
		}
	}()
	f.Append([]logic.Vector{logic.FromUint64(9, 1), logic.FromUint64(16, 2)})
}

func TestAppendCopiesRow(t *testing.T) {
	f := NewFunctional(sig2())
	row := []logic.Vector{logic.FromUint64(8, 1), logic.FromUint64(16, 2)}
	f.Append(row)
	row[0] = logic.FromUint64(8, 99)
	if got := f.Value(0, 0).Uint64(); got != 1 {
		t.Errorf("trace aliases caller slice: %d", got)
	}
}

func TestSameSchema(t *testing.T) {
	a := NewFunctional(sig2())
	b := NewFunctional(sig2())
	if !a.SameSchema(b) {
		t.Error("identical schemas reported different")
	}
	c := NewFunctional([]Signal{{Name: "a", Width: 8}})
	if a.SameSchema(c) {
		t.Error("different schemas reported same")
	}
}

func TestInputHammingDistance(t *testing.T) {
	f := NewFunctional(sig2())
	f.Append([]logic.Vector{logic.FromUint64(8, 0x00), logic.FromUint64(16, 0x0000)})
	f.Append([]logic.Vector{logic.FromUint64(8, 0x0f), logic.FromUint64(16, 0x0003)})
	f.Append([]logic.Vector{logic.FromUint64(8, 0x0f), logic.FromUint64(16, 0x0003)})
	hd := f.InputHammingDistance([]int{0, 1})
	want := []float64{0, 6, 0}
	for i := range want {
		if hd[i] != want[i] {
			t.Errorf("hd[%d] = %g, want %g", i, hd[i], want[i])
		}
	}
}

func TestFunctionalCSVRoundTrip(t *testing.T) {
	f := NewFunctional(sig2())
	f.Append([]logic.Vector{logic.FromUint64(8, 0xab), logic.FromUint64(16, 0xcdef)})
	f.Append([]logic.Vector{logic.FromUint64(8, 0), logic.FromUint64(16, 1)})
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFunctionalCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.SameSchema(f) || got.Len() != f.Len() {
		t.Fatalf("round trip shape mismatch")
	}
	for ti := 0; ti < f.Len(); ti++ {
		for c := range f.Signals {
			if !got.Value(ti, c).Equal(f.Value(ti, c)) {
				t.Errorf("value (%d,%d) differs", ti, c)
			}
		}
	}
}

func TestReadFunctionalCSVErrors(t *testing.T) {
	cases := []string{
		"",               // empty
		"a:8,b\n00,0000", // missing width
		"a:8\nzz",        // bad hex
		"a:8,b:16\nab",   // short row
		"a:0\n0",         // zero width
	}
	for _, c := range cases {
		if _, err := ReadFunctionalCSV(strings.NewReader(c)); err == nil {
			t.Errorf("input %q accepted", c)
		}
	}
}

func TestPowerCSVRoundTrip(t *testing.T) {
	p := &Power{Values: []float64{1.5e-3, 0, 3.25e-6}}
	var buf bytes.Buffer
	if err := p.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPowerCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 3 {
		t.Fatalf("Len = %d", got.Len())
	}
	for i := range p.Values {
		if got.Values[i] != p.Values[i] {
			t.Errorf("value %d: %g != %g", i, got.Values[i], p.Values[i])
		}
	}
}

func TestReadPowerCSVError(t *testing.T) {
	if _, err := ReadPowerCSV(strings.NewReader("1.0\nnot-a-number\n")); err == nil {
		t.Error("bad float accepted")
	}
}

func TestCaptureRecordsSimulation(t *testing.T) {
	core := ip.NewRAM()
	sim := hdl.NewSimulator(core)
	f, obs := Capture(core)
	sim.Observe(obs)

	step := func(en, we, addr, wdata uint64) {
		sim.MustStep(hdl.Values{
			"en":    logic.FromUint64(1, en),
			"we":    logic.FromUint64(1, we),
			"addr":  logic.FromUint64(10, addr),
			"wdata": logic.FromUint64(32, wdata),
		})
	}
	step(1, 1, 4, 0xbeef)
	step(1, 0, 4, 0)
	step(0, 0, 0, 0)

	if f.Len() != 3 {
		t.Fatalf("captured %d rows", f.Len())
	}
	rcol := f.Column("rdata")
	if rcol < 0 {
		t.Fatal("rdata column missing")
	}
	if got := f.Value(1, rcol).Uint64(); got != 0xbeef {
		t.Errorf("captured rdata = %#x", got)
	}
	// schema covers all 5 ports, inputs first
	if len(f.Signals) != 5 {
		t.Errorf("schema has %d signals", len(f.Signals))
	}
	if f.Signals[len(f.Signals)-1].Name != "rdata" {
		t.Errorf("outputs should come last, got %v", f.Signals)
	}
}

func TestInputColumns(t *testing.T) {
	core := ip.NewRAM()
	f, _ := Capture(core)
	cols := InputColumns(f, core)
	if len(cols) != 4 {
		t.Fatalf("input columns = %v", cols)
	}
	for _, c := range cols {
		if f.Signals[c].Name == "rdata" {
			t.Error("output column classified as input")
		}
	}
}

func TestWriteVCD(t *testing.T) {
	f := NewFunctional([]Signal{{Name: "clk_en", Width: 1}, {Name: "bus", Width: 8}})
	f.Append([]logic.Vector{logic.FromUint64(1, 0), logic.FromUint64(8, 0)})
	f.Append([]logic.Vector{logic.FromUint64(1, 1), logic.FromUint64(8, 0x5a)})
	f.Append([]logic.Vector{logic.FromUint64(1, 1), logic.FromUint64(8, 0x5a)}) // no change
	var buf bytes.Buffer
	if err := f.WriteVCD(&buf, "dut", 20); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"$timescale 20ns $end",
		"$var wire 1 ! clk_en $end",
		"$var wire 8 \" bus $end",
		"#0", "#1", "b1011010 \"",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("VCD missing %q:\n%s", want, out)
		}
	}
	// The closing timestamp marks the dump horizon so ReadVCD recovers
	// trailing unchanged instants.
	if !strings.Contains(out, "#2") {
		t.Error("VCD missing the closing timestamp")
	}
}

func TestVCDIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 500; i++ {
		id := vcdID(i)
		if seen[id] {
			t.Fatalf("duplicate VCD id %q at %d", id, i)
		}
		seen[id] = true
	}
}

func TestVCDRoundTrip(t *testing.T) {
	f := NewFunctional([]Signal{{Name: "en", Width: 1}, {Name: "bus", Width: 12}})
	vals := [][2]uint64{{0, 0}, {1, 0x5a}, {1, 0x5a}, {0, 0xfff}, {1, 1}, {1, 1}, {1, 1}, {0, 0}}
	for _, v := range vals {
		f.Append([]logic.Vector{logic.FromUint64(1, v[0]), logic.FromUint64(12, v[1])})
	}
	var buf bytes.Buffer
	if err := f.WriteVCD(&buf, "dut", 10); err != nil {
		t.Fatal(err)
	}
	got, err := ReadVCD(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.SameSchema(f) {
		t.Fatalf("schema differs: %v vs %v", got.Signals, f.Signals)
	}
	if got.Len() != f.Len() {
		t.Fatalf("length %d, want %d", got.Len(), f.Len())
	}
	for i := 0; i < f.Len(); i++ {
		for c := range f.Signals {
			if !got.Value(i, c).Equal(f.Value(i, c)) {
				t.Errorf("value (%d,%d) = %s, want %s", i, c, got.Value(i, c), f.Value(i, c))
			}
		}
	}
}

func TestReadVCDForeignDialect(t *testing.T) {
	// A dump in the style other simulators emit: $dumpvars block with
	// initial values, x bits, reg vars, gaps between timestamps.
	in := `$date today $end
$timescale 1ns $end
$scope module top $end
$var wire 1 ! clk $end
$var reg 8 " data $end
$upscope $end
$enddefinitions $end
$dumpvars
0!
bxxxxxxxx "
$end
#0
1!
#3
0!
b1010x01z "
#5
1!
`
	f, err := ReadVCD(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != 6 {
		t.Fatalf("rows = %d, want 6 (timestamps 0..5)", f.Len())
	}
	clk, data := f.Column("clk"), f.Column("data")
	if got := f.Value(0, clk).Uint64(); got != 1 {
		t.Errorf("clk@0 = %d", got)
	}
	if got := f.Value(0, data).Uint64(); got != 0 {
		t.Errorf("data@0 = %#x (x bits read as 0)", got)
	}
	// forward fill between #0 and #3
	if got := f.Value(2, clk).Uint64(); got != 1 {
		t.Errorf("clk@2 = %d", got)
	}
	// after #3: clk=0, data=1010x01z → 0b10100010
	if got := f.Value(3, clk).Uint64(); got != 0 {
		t.Errorf("clk@3 = %d", got)
	}
	if got := f.Value(4, data).Uint64(); got != 0b10100010 {
		t.Errorf("data@4 = %#b", got)
	}
	if got := f.Value(5, clk).Uint64(); got != 1 {
		t.Errorf("clk@5 = %d", got)
	}
}

func TestReadVCDErrors(t *testing.T) {
	cases := []string{
		"",
		"$enddefinitions $end\n#0\n", // no signals
		"$var wire x ! a $end\n$enddefinitions $end\n#0",       // bad width
		"$var wire 1 ! a $end\n$enddefinitions $end\n0?\n#0\n", // unknown id
		"$var wire 1 ! a $end\n$enddefinitions $end\n",         // no timestamps
		"$var wire 1 ! a $end\n$enddefinitions $end\n#-1\n",    // bad timestamp
		"$var wire 8 ! a $end\n$enddefinitions $end\n#0\nq!\n", // bad change
	}
	for _, c := range cases {
		if _, err := ReadVCD(strings.NewReader(c)); err == nil {
			t.Errorf("input %q accepted", c)
		}
	}
}
