package hdl

import (
	"testing"

	"psmkit/internal/logic"
)

func TestBankMigratesPendingState(t *testing.T) {
	a := NewReg("a", 8)
	b := NewReg("b", 8)
	a.Set(logic.FromUint64(8, 0xff)) // 8 toggles while unbound
	b.Gate(true)

	bank := NewToggleBank([]*Reg{a, b})
	if got := bank.toggles[0]; got != 8 {
		t.Fatalf("migrated toggles = %d, want 8", got)
	}
	if bank.TouchedPlane()[0]&1 == 0 {
		t.Fatal("touched bit not migrated")
	}
	if bank.GatedPlane()[0] != 2 {
		t.Fatalf("gated plane = %b, want slot 1 only (gating state not migrated)", bank.GatedPlane()[0])
	}
}

func TestBankPublishAndReadThrough(t *testing.T) {
	a := NewReg("a", 8)
	b := NewReg("b", 8)
	bank := NewToggleBank([]*Reg{a, b})

	a.Set(logic.FromUint64(8, 0x0f)) // 4 toggles
	a.Set(logic.FromUint64(8, 0x00)) // 4 more (glitch accumulation)
	if got := bank.toggles[0]; got != 8 {
		t.Fatalf("bank toggles = %d, want 8", got)
	}
	if bank.TouchedPlane()[0] != 1 {
		t.Fatalf("touched plane = %b, want slot 0 only", bank.TouchedPlane()[0])
	}
	if a.toggles != 0 {
		t.Fatalf("bound element kept %d toggles of its own", a.toggles)
	}

	b.Gate(true)
	if bank.GatedPlane()[0] != 2 {
		t.Fatalf("gated plane = %b, want slot 1 only", bank.GatedPlane()[0])
	}
	b.Gate(false)
	if bank.GatedPlane()[0] != 0 {
		t.Fatal("gate clear not published")
	}
}

func TestBankSetIdenticalValueLeavesPlaneClean(t *testing.T) {
	a := NewReg("a", 8)
	bank := NewToggleBank([]*Reg{a})
	a.Set(logic.FromUint64(8, 0)) // zero Hamming distance
	if bank.TouchedPlane()[0] != 0 || bank.toggles[0] != 0 {
		t.Fatal("zero-HD write marked the plane")
	}
}

func TestBankDrainSlotLeavesTouchedToCaller(t *testing.T) {
	a := NewReg("a", 4)
	bank := NewToggleBank([]*Reg{a})
	a.Set(logic.FromUint64(4, 0xf))
	if got := bank.DrainSlot(0); got != 4 {
		t.Fatalf("DrainSlot = %d, want 4", got)
	}
	if bank.TouchedPlane()[0] != 1 {
		t.Fatal("DrainSlot must not clear the touched plane")
	}
	bank.ClearTouchedWord(0)
	if bank.TouchedPlane()[0] != 0 {
		t.Fatal("ClearTouchedWord failed")
	}
}

func TestBankRegResetClearsSlot(t *testing.T) {
	a := NewReg("a", 4)
	bank := NewToggleBank([]*Reg{a})
	a.Set(logic.FromUint64(4, 0xf))
	a.Gate(true)
	a.Reset()
	if bank.toggles[0] != 0 || bank.TouchedPlane()[0] != 0 {
		t.Fatal("Reset left pending toggles in the bank")
	}
	if bank.GatedPlane()[0] != 0 {
		t.Fatal("Reset left the slot gated")
	}
}

func TestBankDoubleBindPanics(t *testing.T) {
	a := NewReg("a", 4)
	NewToggleBank([]*Reg{a})
	defer func() {
		if recover() == nil {
			t.Fatal("binding an element to a second bank did not panic")
		}
	}()
	NewToggleBank([]*Reg{a})
}

func TestBankManyWords(t *testing.T) {
	elems := make([]*Reg, 130) // 3 plane words, last one partial
	for i := range elems {
		elems[i] = NewReg("e", 1)
	}
	bank := NewToggleBank(elems)
	if bank.Words() != 3 || len(bank.toggles) != 130 {
		t.Fatalf("words=%d slots=%d", bank.Words(), len(bank.toggles))
	}
	elems[129].Set(logic.FromUint64(1, 1))
	if bank.TouchedPlane()[2] != 1<<1 {
		t.Fatalf("slot 129 bit not in word 2: %b", bank.TouchedPlane()[2])
	}
	if p := bank.TouchedPlane(); p[0] != 0 || p[1] != 0 {
		t.Fatalf("words 0 and 1 marked: %b %b", p[0], p[1])
	}
}
