package ip

import (
	"math/rand"
	"testing"
	"testing/quick"

	"psmkit/internal/hdl"
	"psmkit/internal/logic"
)

func macIn(a, b, c, en uint64) hdl.Values {
	return hdl.Values{
		"a":  logic.FromUint64(16, a),
		"b":  logic.FromUint64(16, b),
		"c":  logic.FromUint64(16, c),
		"en": logic.FromUint64(1, en),
	}
}

func TestMultSumComputes(t *testing.T) {
	sim := hdl.NewSimulator(NewMultSum())
	out := sim.MustStep(macIn(3, 5, 7, 1))
	if got := out["sum"].Uint64(); got != 3*5+7 {
		t.Errorf("sum = %d, want %d", got, 3*5+7)
	}
	out = sim.MustStep(macIn(65535, 65535, 65535, 1))
	want := (uint64(65535)*65535 + 65535) & 0xffffffff
	if got := out["sum"].Uint64(); got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
}

func TestMultSumStreaming(t *testing.T) {
	sim := hdl.NewSimulator(NewMultSum())
	type op struct{ a, b, c uint64 }
	ops := []op{{2, 3, 1}, {100, 200, 50}, {65535, 65535, 65535}, {0, 0, 0}, {1, 1, 1}}
	for i, o := range ops {
		out := sim.MustStep(macIn(o.a, o.b, o.c, 1))
		want := (o.a*o.b + o.c) & 0xffffffff
		if got := out["sum"].Uint64(); got != want {
			t.Errorf("op %d: sum = %d, want %d", i, got, want)
		}
	}
}

func TestMultSumHoldsOutputWhenIdle(t *testing.T) {
	sim := hdl.NewSimulator(NewMultSum())
	sim.MustStep(macIn(9, 9, 0, 1))
	var out hdl.Values
	for i := 0; i < 5; i++ {
		out = sim.MustStep(macIn(7, 7, 7, 0)) // inputs wiggle, en low
	}
	if got := out["sum"].Uint64(); got != 81 {
		t.Errorf("idle output drifted to %d", got)
	}
}

func TestMultSumIdleHasNoDataActivity(t *testing.T) {
	m := NewMultSum()
	act := watch(m)
	sim := hdl.NewSimulator(m)
	sim.MustStep(macIn(9, 9, 9, 1))
	act.total()
	sim.MustStep(macIn(0, 0, 0, 0))
	// Only the busy status bit may toggle when idle.
	total := 0
	for i, e := range act.elems {
		if e.Name() == "mac.busy" {
			continue
		}
		total += act.drain(i)
	}
	if total != 0 {
		t.Errorf("idle cycle toggled %d data bits", total)
	}
}

func TestMultSumPortAndMemoryBits(t *testing.T) {
	m := NewMultSum()
	if got := hdl.PortWidths(m, hdl.In); got != 49 {
		t.Errorf("PI bits = %d, want 49", got)
	}
	if got := hdl.PortWidths(m, hdl.Out); got != 32 {
		t.Errorf("PO bits = %d, want 32", got)
	}
	// ra+rb+rc (48) + pp (128) + busy + sum (32)
	if got := hdl.MemoryBits(m); got != 209 {
		t.Errorf("memory bits = %d, want 209", got)
	}
}

func TestMultSumNeverGated(t *testing.T) {
	// The DesignWare-style MAC is not clock-gated: its free-running clock
	// tree gives the design a non-zero idle power floor (which the power
	// model needs — and which real MACs exhibit).
	m := NewMultSum()
	act := watch(m)
	sim := hdl.NewSimulator(m)
	sim.MustStep(macIn(0, 0, 0, 0))
	sim.MustStep(macIn(0, 0, 0, 0))
	for i, e := range act.elems {
		if act.gated(i) {
			t.Errorf("element %s gated", e.Name())
		}
	}
}

func TestQuickMultSumMatchesArithmetic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sim := hdl.NewSimulator(NewMultSum())
		for i := 0; i < 50; i++ {
			a := uint64(rng.Intn(1 << 16))
			b := uint64(rng.Intn(1 << 16))
			c := uint64(rng.Intn(1 << 16))
			out := sim.MustStep(macIn(a, b, c, 1))
			if out["sum"].Uint64() != (a*b+c)&0xffffffff {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
