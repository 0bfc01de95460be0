package hdl

import (
	"strings"
	"testing"
	"testing/quick"

	"psmkit/internal/logic"
)

// counter is a toy core: an 8-bit counter with enable and synchronous
// clear, driving its value and a carry-out flag.
type counter struct {
	cnt   *Reg
	carry *Reg
}

func newCounter() *counter {
	return &counter{
		cnt:   NewReg("cnt", 8),
		carry: NewReg("carry", 1),
	}
}

func (c *counter) Name() string { return "counter" }

func (c *counter) Ports() []PortSpec {
	return []PortSpec{
		{Name: "en", Width: 1, Dir: In},
		{Name: "clr", Width: 1, Dir: In},
		{Name: "count", Width: 8, Dir: Out},
		{Name: "co", Width: 1, Dir: Out},
	}
}

func (c *counter) Reset() {
	c.cnt.Reset()
	c.carry.Reset()
}

func (c *counter) Elements() []*Reg { return []*Reg{c.cnt, c.carry} }

func (c *counter) Step(in Values) Values {
	en := in["en"].Bit(0) == 1
	clr := in["clr"].Bit(0) == 1
	c.cnt.Gate(!en && !clr) // clock gating when idle
	switch {
	case clr:
		c.cnt.SetUint64(0)
		c.carry.SetUint64(0)
	case en:
		next := logic.FromUint64(8, c.cnt.Get().Uint64()+1)
		if next.IsZero() {
			c.carry.SetUint64(1)
		} else {
			c.carry.SetUint64(0)
		}
		c.cnt.Set(next)
	}
	return Values{"count": c.cnt.Get(), "co": c.carry.Get()}
}

func in(en, clr uint64) Values {
	return Values{"en": logic.FromUint64(1, en), "clr": logic.FromUint64(1, clr)}
}

func TestSimulatorCounts(t *testing.T) {
	s := NewSimulator(newCounter())
	var out Values
	for i := 0; i < 5; i++ {
		out = s.MustStep(in(1, 0))
	}
	if got := out["count"].Uint64(); got != 5 {
		t.Errorf("count = %d, want 5", got)
	}
	out = s.MustStep(in(0, 0)) // disabled: hold
	if got := out["count"].Uint64(); got != 5 {
		t.Errorf("hold: count = %d", got)
	}
	out = s.MustStep(in(1, 1)) // clear wins
	if got := out["count"].Uint64(); got != 0 {
		t.Errorf("clear: count = %d", got)
	}
	if s.Cycle() != 7 {
		t.Errorf("Cycle = %d", s.Cycle())
	}
}

func TestCarryOut(t *testing.T) {
	s := NewSimulator(newCounter())
	var out Values
	for i := 0; i < 256; i++ {
		out = s.MustStep(in(1, 0))
	}
	if got := out["co"].Uint64(); got != 1 {
		t.Errorf("carry after 256 increments = %d", got)
	}
	if got := out["count"].Uint64(); got != 0 {
		t.Errorf("wrapped count = %d", got)
	}
	out = s.MustStep(in(1, 0))
	if got := out["co"].Uint64(); got != 0 {
		t.Errorf("carry should clear, got %d", got)
	}
}

func TestSimulatorValidatesInputs(t *testing.T) {
	s := NewSimulator(newCounter())
	if _, err := s.Step(Values{"en": logic.FromUint64(1, 1)}); err == nil {
		t.Error("missing input accepted")
	} else if !strings.Contains(err.Error(), "clr") {
		t.Errorf("error should name missing port: %v", err)
	}
	if _, err := s.Step(Values{"en": logic.FromUint64(2, 1), "clr": logic.FromUint64(1, 0)}); err == nil {
		t.Error("wrong-width input accepted")
	}
}

type badCore struct{ *counter }

func (b badCore) Step(in Values) Values {
	out := b.counter.Step(in)
	delete(out, "co")
	return out
}

func TestSimulatorValidatesOutputs(t *testing.T) {
	s := NewSimulator(badCore{newCounter()})
	if _, err := s.Step(in(1, 0)); err == nil {
		t.Error("missing output accepted")
	}
}

func TestObserverSeesEveryCycle(t *testing.T) {
	s := NewSimulator(newCounter())
	var cycles []int
	var lastOut uint64
	s.Observe(func(cycle int, _, out Values) {
		cycles = append(cycles, cycle)
		lastOut = out["count"].Uint64()
	})
	for i := 0; i < 4; i++ {
		s.MustStep(in(1, 0))
	}
	if len(cycles) != 4 || cycles[3] != 3 {
		t.Errorf("cycles = %v", cycles)
	}
	if lastOut != 4 {
		t.Errorf("observer lastOut = %d", lastOut)
	}
}

func TestRegToggleAccounting(t *testing.T) {
	r := NewReg("r", 8)
	bank := NewToggleBank([]*Reg{r})
	r.Set(logic.FromUint64(8, 0xff))
	if got := bank.DrainSlot(0); got != 8 {
		t.Errorf("toggles = %d, want 8", got)
	}
	if got := bank.DrainSlot(0); got != 0 {
		t.Errorf("DrainSlot should drain, got %d", got)
	}
	// two writes in a cycle accumulate (glitch modelling)
	r.Set(logic.FromUint64(8, 0x00))
	r.Set(logic.FromUint64(8, 0x0f))
	if got := bank.DrainSlot(0); got != 12 {
		t.Errorf("glitch toggles = %d, want 12", got)
	}
}

func TestRegResetValueAndGating(t *testing.T) {
	r := NewReg("r", 4)
	if r.Get().Uint64() != 0 {
		t.Errorf("power-on value = %#x", r.Get().Uint64())
	}
	r.Set(logic.FromUint64(4, 0x5))
	r.Gate(true)
	r.Reset()
	if r.Get().Uint64() != 0 || r.toggles != 0 || r.gated {
		t.Error("Reset should restore value, clear toggles and ungate")
	}
}

func TestNetIsNotMemory(t *testing.T) {
	n := NewNet("n", 16)
	if n.IsMemory() {
		t.Error("net reported as memory")
	}
	c := newCounter()
	if got := MemoryBits(c); got != 9 {
		t.Errorf("MemoryBits = %d, want 9", got)
	}
}

func TestPortWidths(t *testing.T) {
	c := newCounter()
	if got := PortWidths(c, In); got != 2 {
		t.Errorf("PI bits = %d", got)
	}
	if got := PortWidths(c, Out); got != 9 {
		t.Errorf("PO bits = %d", got)
	}
}

func TestSortedPortNames(t *testing.T) {
	got := SortedPortNames(newCounter())
	want := []string{"clr", "en", "co", "count"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("port %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestValuesClone(t *testing.T) {
	v := Values{"a": logic.FromUint64(8, 1)}
	c := v.Clone()
	c["a"] = logic.FromUint64(8, 2)
	if v["a"].Uint64() != 1 {
		t.Error("Clone aliases the original map")
	}
}

// TestSimulatorReset: a simulator resets its core, so a new one over a
// used core starts from the power-on state at cycle 0.
func TestSimulatorReset(t *testing.T) {
	c := newCounter()
	s := NewSimulator(c)
	for i := 0; i < 10; i++ {
		s.MustStep(in(1, 0))
	}
	s = NewSimulator(c)
	if s.Cycle() != 0 {
		t.Errorf("cycle after reset = %d", s.Cycle())
	}
	out := s.MustStep(in(0, 0))
	if got := out["count"].Uint64(); got != 0 {
		t.Errorf("count after reset = %d", got)
	}
}

func TestQuickCounterMatchesModulo(t *testing.T) {
	f := func(steps uint16) bool {
		n := int(steps % 1000)
		s := NewSimulator(newCounter())
		var out Values
		out = s.MustStep(in(0, 0))
		for i := 0; i < n; i++ {
			out = s.MustStep(in(1, 0))
		}
		return out["count"].Uint64() == uint64(n%256)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
