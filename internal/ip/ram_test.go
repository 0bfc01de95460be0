package ip

import (
	"math/rand"
	"testing"
	"testing/quick"

	"psmkit/internal/hdl"
	"psmkit/internal/logic"
)

func ramIn(en, we, addr, wdata uint64) hdl.Values {
	return hdl.Values{
		"en":    logic.FromUint64(1, en),
		"we":    logic.FromUint64(1, we),
		"addr":  logic.FromUint64(ramAddrBits, addr),
		"wdata": logic.FromUint64(ramDataWidth, wdata),
	}
}

func TestRAMWriteReadBack(t *testing.T) {
	sim := hdl.NewSimulator(NewRAM())
	out := sim.MustStep(ramIn(1, 1, 0x10, 0xdeadbeef)) // write word 4
	if got := out["rdata"].Uint64(); got != 0xdeadbeef {
		t.Errorf("write-through rdata = %#x", got)
	}
	out = sim.MustStep(ramIn(1, 0, 0x10, 0))
	if got := out["rdata"].Uint64(); got != 0xdeadbeef {
		t.Errorf("read back = %#x", got)
	}
	// different word still zero
	out = sim.MustStep(ramIn(1, 0, 0x14, 0))
	if got := out["rdata"].Uint64(); got != 0 {
		t.Errorf("untouched word = %#x", got)
	}
}

func TestRAMWordAlignment(t *testing.T) {
	sim := hdl.NewSimulator(NewRAM())
	sim.MustStep(ramIn(1, 1, 0x13, 0xabcd)) // byte addr 0x13 → word 4
	out := sim.MustStep(ramIn(1, 0, 0x10, 0))
	if got := out["rdata"].Uint64(); got != 0xabcd {
		t.Errorf("aligned access: rdata = %#x", got)
	}
}

func TestRAMDisabledDrivesZero(t *testing.T) {
	sim := hdl.NewSimulator(NewRAM())
	sim.MustStep(ramIn(1, 1, 0, 0xffffffff))
	out := sim.MustStep(ramIn(0, 0, 0, 0))
	if got := out["rdata"].Uint64(); got != 0 {
		t.Errorf("disabled rdata = %#x", got)
	}
}

func TestRAMMemoryBits(t *testing.T) {
	if got := hdl.MemoryBits(NewRAM()); got != 8192 {
		t.Errorf("memory bits = %d, want 8192 (1 KB)", got)
	}
	if got := hdl.PortWidths(NewRAM(), hdl.In); got != 44 {
		t.Errorf("PI bits = %d, want 44", got)
	}
	if got := hdl.PortWidths(NewRAM(), hdl.Out); got != 32 {
		t.Errorf("PO bits = %d, want 32", got)
	}
}

func TestRAMClockGating(t *testing.T) {
	r := NewRAM()
	act := watch(r)
	sim := hdl.NewSimulator(r)
	// After a write cycle, exactly one word is ungated.
	sim.MustStep(ramIn(1, 1, 0x20, 1))
	ungated := 0
	for i := range act.elems {
		if !act.gated(i) {
			ungated++
		}
	}
	if ungated != 1 {
		t.Errorf("ungated words after write = %d, want 1", ungated)
	}
	// After an idle cycle everything is gated again.
	sim.MustStep(ramIn(0, 0, 0, 0))
	for i, e := range act.elems {
		if !act.gated(i) {
			t.Fatalf("element %s ungated while idle", e.Name())
		}
	}
}

func TestRAMWriteToggleActivity(t *testing.T) {
	r := NewRAM()
	act := watch(r)
	sim := hdl.NewSimulator(r)
	sim.MustStep(ramIn(1, 1, 0, 0x0000ffff))
	if got := act.total(); got != 16 {
		t.Errorf("first write toggles = %d, want 16", got)
	}
	sim.MustStep(ramIn(1, 1, 0, 0xffff0000))
	if got := act.total(); got != 32 {
		t.Errorf("rewrite toggles = %d, want 32", got)
	}
	sim.MustStep(ramIn(1, 0, 0, 0)) // read: no toggles
	if got := act.total(); got != 0 {
		t.Errorf("read toggles = %d, want 0", got)
	}
}

func TestRAMReset(t *testing.T) {
	r := NewRAM()
	sim := hdl.NewSimulator(r)
	sim.MustStep(ramIn(1, 1, 0x40, 77))
	sim = hdl.NewSimulator(r) // resets the core
	out := sim.MustStep(ramIn(1, 0, 0x40, 0))
	if got := out["rdata"].Uint64(); got != 0 {
		t.Errorf("after reset rdata = %#x", got)
	}
}

func TestQuickRAMBehavesLikeMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sim := hdl.NewSimulator(NewRAM())
		model := map[uint64]uint64{}
		for i := 0; i < 300; i++ {
			addr := uint64(rng.Intn(1 << ramAddrBits))
			word := addr >> 2
			if rng.Intn(2) == 0 {
				data := rng.Uint64() & 0xffffffff
				sim.MustStep(ramIn(1, 1, addr, data))
				model[word] = data
			} else {
				out := sim.MustStep(ramIn(1, 0, addr, 0))
				if out["rdata"].Uint64() != model[word] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
