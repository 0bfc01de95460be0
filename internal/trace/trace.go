// Package trace defines the training-trace artifacts of the PSM flow
// (Definition 2 of the paper): functional traces — per-cycle valuations of
// a model's primary inputs and outputs — and dynamic power traces. It also
// provides capture observers that record traces during simulation, a CSV
// interchange format with full round-trip support, and a VCD writer for
// waveform-viewer interoperability.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"psmkit/internal/hdl"
	"psmkit/internal/logic"
)

// Signal identifies one column of a functional trace.
type Signal struct {
	Name  string
	Width int
}

// Functional is a finite sequence of valuations of a fixed signal set —
// the paper's Φ = ⟨φ1, …, φn⟩.
type Functional struct {
	Signals []Signal
	rows    [][]logic.Vector
}

// NewFunctional returns an empty functional trace over the given signals.
func NewFunctional(signals []Signal) *Functional {
	return &Functional{Signals: append([]Signal(nil), signals...)}
}

// Len returns the number of simulation instants recorded.
func (f *Functional) Len() int { return len(f.rows) }

// Append adds one instant's valuation. The row length must match the
// signal set; widths are validated.
func (f *Functional) Append(row []logic.Vector) {
	if len(row) != len(f.Signals) {
		panic(fmt.Sprintf("trace: row has %d values, trace has %d signals", len(row), len(f.Signals)))
	}
	for i, v := range row {
		if v.Width() != f.Signals[i].Width {
			panic(fmt.Sprintf("trace: signal %q width %d, value width %d",
				f.Signals[i].Name, f.Signals[i].Width, v.Width()))
		}
	}
	f.rows = append(f.rows, append([]logic.Vector(nil), row...))
}

// Row returns the valuation at instant t.
func (f *Functional) Row(t int) []logic.Vector { return f.rows[t] }

// Value returns signal col's value at instant t.
func (f *Functional) Value(t, col int) logic.Vector { return f.rows[t][col] }

// Column returns the index of the named signal, or -1.
func (f *Functional) Column(name string) int {
	for i, s := range f.Signals {
		if s.Name == name {
			return i
		}
	}
	return -1
}

// SameSchema reports whether o records exactly the same signal set.
func (f *Functional) SameSchema(o *Functional) bool {
	if len(f.Signals) != len(o.Signals) {
		return false
	}
	for i := range f.Signals {
		if f.Signals[i] != o.Signals[i] {
			return false
		}
	}
	return true
}

// InputHammingDistance returns, for each instant t > 0, the total Hamming
// distance between the valuations of the listed columns at t and t-1 —
// the regressor of the paper's data-dependent state calibration. Instant 0
// gets 0.
func (f *Functional) InputHammingDistance(cols []int) []float64 {
	out := make([]float64, f.Len())
	for t := range out {
		out[t] = float64(f.InputHammingDistanceAt(t, cols))
	}
	return out
}

// InputHammingDistanceAt is InputHammingDistance at the single instant t.
func (f *Functional) InputHammingDistanceAt(t int, cols []int) int {
	if t == 0 {
		return 0
	}
	hd := 0
	for _, c := range cols {
		hd += f.rows[t][c].HammingDistance(f.rows[t-1][c])
	}
	return hd
}

// CoreSchema returns the signal set of a core's primary inputs and
// outputs, in the kernel's stable port order.
func CoreSchema(core hdl.Core) []Signal {
	widths := map[string]int{}
	for _, p := range core.Ports() {
		widths[p.Name] = p.Width
	}
	var sigs []Signal
	for _, name := range hdl.SortedPortNames(core) {
		sigs = append(sigs, Signal{Name: name, Width: widths[name]})
	}
	return sigs
}

// InputColumns returns the column indices of f that correspond to primary
// inputs of the core.
func InputColumns(f *Functional, core hdl.Core) []int {
	var cols []int
	for _, p := range core.Ports() {
		if p.Dir == hdl.In {
			if c := f.Column(p.Name); c >= 0 {
				cols = append(cols, c)
			}
		}
	}
	return cols
}

// Capture returns a functional trace bound to the core's PI/PO schema and
// an observer that appends one row per simulated cycle.
func Capture(core hdl.Core) (*Functional, hdl.Observer) {
	f := NewFunctional(CoreSchema(core))
	names := hdl.SortedPortNames(core)
	obs := func(_ int, in, out hdl.Values) {
		row := make([]logic.Vector, len(names))
		for i, n := range names {
			if v, ok := in[n]; ok {
				row[i] = v
			} else {
				row[i] = out[n]
			}
		}
		f.Append(row)
	}
	return f, obs
}

// Power is a dynamic power trace — the paper's Δ = ⟨δ1, …, δn⟩, in watts
// per simulation instant.
type Power struct {
	Values []float64
}

// Len returns the number of instants.
func (p *Power) Len() int { return len(p.Values) }

// --- CSV interchange --------------------------------------------------------

// WriteCSV serializes the functional trace: a header of name:width fields
// followed by one hex-encoded row per instant.
func (f *Functional) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i, s := range f.Signals {
		if i > 0 {
			fmt.Fprint(bw, ",")
		}
		fmt.Fprintf(bw, "%s:%d", s.Name, s.Width)
	}
	fmt.Fprintln(bw)
	for _, row := range f.rows {
		for i, v := range row {
			if i > 0 {
				fmt.Fprint(bw, ",")
			}
			fmt.Fprint(bw, v.Hex())
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// ReadFunctionalCSV parses the format produced by WriteCSV. It is
// unbounded; parsers facing untrusted input should use
// ReadFunctionalCSVBounded.
func ReadFunctionalCSV(r io.Reader) (*Functional, error) {
	return ReadFunctionalCSVBounded(r, Limits{})
}

// ReadFunctionalCSVBounded is ReadFunctionalCSV under resource limits;
// violations return a *LimitError.
func ReadFunctionalCSVBounded(r io.Reader, lim Limits) (*Functional, error) {
	sc := bufio.NewScanner(r)
	buf := lim.lineBytes()
	sc.Buffer(make([]byte, min(buf, 1<<20)), buf)
	if !sc.Scan() {
		return nil, fmt.Errorf("trace: empty CSV")
	}
	var sigs []Signal
	widthBits := 0
	for _, field := range strings.Split(sc.Text(), ",") {
		name, widthStr, ok := strings.Cut(field, ":")
		if !ok {
			return nil, fmt.Errorf("trace: bad header field %q", field)
		}
		w, err := strconv.Atoi(widthStr)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("trace: bad width in header field %q", field)
		}
		sigs = append(sigs, Signal{Name: name, Width: w})
		widthBits += w
	}
	if err := lim.checkSignals(len(sigs), widthBits); err != nil {
		return nil, err
	}
	f := NewFunctional(sigs)
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if err := lim.checkInstants(f.Len() + 1); err != nil {
			return nil, err
		}
		fields := strings.Split(text, ",")
		if len(fields) != len(sigs) {
			return nil, fmt.Errorf("trace: line %d has %d fields, want %d", line, len(fields), len(sigs))
		}
		row := make([]logic.Vector, len(fields))
		for i, field := range fields {
			v, err := logic.ParseHex(sigs[i].Width, field)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d field %d: %v", line, i, err)
			}
			row[i] = v
		}
		f.Append(row)
	}
	return f, sc.Err()
}

// WriteCSV serializes the power trace, one value per line.
func (p *Power) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, v := range p.Values {
		fmt.Fprintf(bw, "%.9e\n", v)
	}
	return bw.Flush()
}

// ReadPowerCSV parses the format produced by Power.WriteCSV. It is
// unbounded; parsers facing untrusted input should use
// ReadPowerCSVBounded.
func ReadPowerCSV(r io.Reader) (*Power, error) {
	return ReadPowerCSVBounded(r, Limits{})
}

// ReadPowerCSVBounded is ReadPowerCSV under resource limits; violations
// return a *LimitError.
func ReadPowerCSVBounded(r io.Reader, lim Limits) (*Power, error) {
	sc := bufio.NewScanner(r)
	buf := lim.lineBytes()
	sc.Buffer(make([]byte, min(buf, 1<<20)), buf)
	p := &Power{}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if err := lim.checkInstants(p.Len() + 1); err != nil {
			return nil, err
		}
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: power line %d: %v", line, err)
		}
		p.Values = append(p.Values, v)
	}
	return p, sc.Err()
}

// --- VCD export ---------------------------------------------------------------

// WriteVCD emits the functional trace as a Value Change Dump for waveform
// viewers. Signals get single-character identifiers starting at '!'.
func (f *Functional) WriteVCD(w io.Writer, module string, timescaleNS int) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "$timescale %dns $end\n", timescaleNS)
	fmt.Fprintf(bw, "$scope module %s $end\n", module)
	ids := make([]string, len(f.Signals))
	for i, s := range f.Signals {
		ids[i] = vcdID(i)
		fmt.Fprintf(bw, "$var wire %d %s %s $end\n", s.Width, ids[i], s.Name)
	}
	fmt.Fprintln(bw, "$upscope $end")
	fmt.Fprintln(bw, "$enddefinitions $end")

	var prev []logic.Vector
	lastEmitted := -1
	for t, row := range f.rows {
		changed := false
		for i, v := range row {
			if prev == nil || !prev[i].Equal(v) {
				if !changed {
					fmt.Fprintf(bw, "#%d\n", t)
					lastEmitted = t
					changed = true
				}
				if f.Signals[i].Width == 1 {
					fmt.Fprintf(bw, "%d%s\n", v.Bit(0), ids[i])
				} else {
					fmt.Fprintf(bw, "b%s %s\n", vcdBits(v), ids[i])
				}
			}
		}
		prev = row
	}
	// Close the dump with a final timestamp so readers recover trailing
	// unchanged instants.
	if n := len(f.rows); n > 0 && lastEmitted < n-1 {
		fmt.Fprintf(bw, "#%d\n", n-1)
	}
	return bw.Flush()
}

func vcdID(i int) string {
	const base = 94 // printable ASCII from '!'
	var sb strings.Builder
	for {
		sb.WriteByte(byte('!' + i%base))
		i /= base
		if i == 0 {
			break
		}
	}
	return sb.String()
}

func vcdBits(v logic.Vector) string {
	var sb strings.Builder
	started := false
	for i := v.Width() - 1; i >= 0; i-- {
		b := v.Bit(i)
		if b == 1 {
			started = true
		}
		if started || i == 0 {
			fmt.Fprintf(&sb, "%d", b)
		}
	}
	return sb.String()
}

// Project returns a trace over a subset of columns (sharing the value
// storage). It is used by the hierarchical-PSM experiments to derive the
// flat PI/PO view from a probed capture.
func (f *Functional) Project(cols []int) *Functional {
	sigs := make([]Signal, len(cols))
	for i, c := range cols {
		sigs[i] = f.Signals[c]
	}
	out := NewFunctional(sigs)
	for _, row := range f.rows {
		nr := make([]logic.Vector, len(cols))
		for i, c := range cols {
			nr[i] = row[c]
		}
		out.rows = append(out.rows, nr)
	}
	return out
}
