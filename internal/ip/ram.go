package ip

import (
	"fmt"

	"psmkit/internal/hdl"
	"psmkit/internal/logic"
)

// RAM words: 1 KB organised as 256 words of 32 bits, byte-addressed with
// the two address LSBs ignored (word-aligned accesses), like the Open Core
// Library memory used in the paper: 44 PI bits (en + we + addr[10] +
// wdata[32]) and 32 PO bits (rdata), 8192 memory elements.
const (
	ramWords     = 256
	ramWordBits  = 32
	ramAddrBits  = 10
	ramDataWidth = 32
)

// RAM is a 1 KB single-port synchronous-write, asynchronous-read memory.
//
// Protocol (all signals sampled on the clock edge):
//
//	en=0           — idle; rdata drives 0; every word's clock is gated.
//	en=1, we=0     — read:  rdata = mem[addr].
//	en=1, we=1     — write: mem[addr] = wdata, write-through rdata = wdata.
//
// Only the addressed word's clock toggles on a write; all other words stay
// gated — the power profile is therefore dominated by the Hamming distance
// between the old and new word contents, which is what makes the RAM a
// data-dependent IP that the paper's linear-regression calibration handles
// well.
type RAM struct {
	mem  [ramWords]*hdl.Reg
	last int // word ungated during the previous cycle, -1 if none
}

// NewRAM returns a zeroed 1 KB RAM.
func NewRAM() *RAM {
	r := &RAM{last: -1}
	for i := range r.mem {
		r.mem[i] = hdl.NewReg(fmt.Sprintf("ram.mem[%d]", i), ramWordBits)
		r.mem[i].Gate(true)
	}
	return r
}

// Name implements hdl.Core.
func (r *RAM) Name() string { return "RAM" }

// Ports implements hdl.Core.
func (r *RAM) Ports() []hdl.PortSpec {
	return []hdl.PortSpec{
		{Name: "en", Width: 1, Dir: hdl.In},
		{Name: "we", Width: 1, Dir: hdl.In},
		{Name: "addr", Width: ramAddrBits, Dir: hdl.In},
		{Name: "wdata", Width: ramDataWidth, Dir: hdl.In},
		{Name: "rdata", Width: ramDataWidth, Dir: hdl.Out},
	}
}

// Reset implements hdl.Core.
func (r *RAM) Reset() {
	for _, w := range r.mem {
		w.Reset()
		w.Gate(true)
	}
	r.last = -1
}

// Elements implements hdl.Core.
func (r *RAM) Elements() []*hdl.Reg {
	out := make([]*hdl.Reg, len(r.mem))
	copy(out, r.mem[:])
	return out
}

// Step implements hdl.Core.
func (r *RAM) Step(in hdl.Values) hdl.Values {
	// Re-gate the word that clocked last cycle.
	if r.last >= 0 {
		r.mem[r.last].Gate(true)
		r.last = -1
	}
	en := in["en"].Bit(0) == 1
	we := in["we"].Bit(0) == 1
	word := int(in["addr"].Uint64() >> 2) // byte address → word index

	rdata := logic.New(ramDataWidth)
	switch {
	case en && we:
		w := r.mem[word]
		w.Gate(false)
		w.Set(in["wdata"])
		r.last = word
		rdata = w.Get() // write-through
	case en:
		rdata = r.mem[word].Get()
	}
	return hdl.Values{"rdata": rdata}
}
