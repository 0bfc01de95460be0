package hdl

import "fmt"

// ToggleBank is the columnar switching-activity store of a core: one
// slot per state element, with the per-cycle toggle counts in a flat
// int32 column and the "toggled this cycle" / "clock gated" flags packed
// into 64-element bit planes. Binding a bank moves a core's activity
// bookkeeping out of the per-Reg counters — registers publish into the
// bank on Set/Gate — so a power kernel can consume a cycle's activity by
// scanning words instead of walking every element through method calls.
//
// The planes are the bank's own storage. Consumers (package power) read
// them through TouchedPlane/GatedPlane and drain a cycle's activity with
// DrainSlot/ClearTouchedWord. Activity an element accumulated before
// binding migrates into the columns; a bound element keeps no counters
// of its own.
//
// A bank is single-writer per cycle, like the Reg counters it replaces:
// one goroutine steps the core and one estimator drains the activity.
type ToggleBank struct {
	toggles []int32  // per-slot toggle count accumulated this cycle
	touched []uint64 // bit i set: slot i accumulated toggles this cycle
	gated   []uint64 // bit i set: slot i's clock is gated
}

// NewToggleBank builds a bank over the element list and binds every
// element to it, migrating any pending per-Reg activity and gating state
// into the columns. An element already bound to a different bank panics:
// two activity consumers draining the same core is a wiring bug (the
// same rule as attaching two estimators to one core).
func NewToggleBank(elems []*Reg) *ToggleBank {
	words := (len(elems) + 63) / 64
	b := &ToggleBank{
		toggles: make([]int32, len(elems)),
		touched: make([]uint64, words),
		gated:   make([]uint64, words),
	}
	for i, r := range elems {
		if r.bank != nil && r.bank != b {
			panic(fmt.Sprintf("hdl: element %q is already bound to a toggle bank", r.name))
		}
		r.bank = b
		r.bankID = i
		if r.toggles != 0 {
			b.toggles[i] = int32(r.toggles)
			b.touched[i/64] |= 1 << uint(i%64)
			r.toggles = 0
		}
		if r.gated {
			b.gated[i/64] |= 1 << uint(i%64)
		}
	}
	return b
}

// Words returns the number of 64-bit words in each plane.
func (b *ToggleBank) Words() int { return len(b.touched) }

// TouchedPlane exposes the toggled-this-cycle bit plane. The slice is
// the bank's storage: consumers clear words they have drained.
func (b *ToggleBank) TouchedPlane() []uint64 { return b.touched }

// GatedPlane exposes the clock-gating bit plane (bank storage; gating
// persists across cycles until the core changes it).
func (b *ToggleBank) GatedPlane() []uint64 { return b.gated }

// DrainSlot returns and clears slot i's toggle count. The caller is
// responsible for clearing the touched plane (ClearTouchedWord) once a
// word's slots are drained.
func (b *ToggleBank) DrainSlot(i int) int {
	t := b.toggles[i]
	b.toggles[i] = 0
	return int(t)
}

// ClearTouchedWord zeroes word w of the touched plane.
func (b *ToggleBank) ClearTouchedWord(w int) { b.touched[w] = 0 }

// add publishes hd toggles for slot i (called by Reg.Set).
func (b *ToggleBank) add(i, hd int) {
	b.toggles[i] += int32(hd)
	b.touched[i/64] |= 1 << uint(i%64)
}

// gate sets or clears slot i's gating bit (called by Reg.Gate).
func (b *ToggleBank) gate(i int, g bool) {
	if g {
		b.gated[i/64] |= 1 << uint(i%64)
	} else {
		b.gated[i/64] &^= 1 << uint(i%64)
	}
}

// clear zeroes slot i's toggles, touched bit and gating bit (called by
// Reg.Reset; it clears only slot i's bits, so a concurrent word scan
// stays consistent).
func (b *ToggleBank) clear(i int) {
	b.toggles[i] = 0
	b.touched[i/64] &^= 1 << uint(i%64)
	b.gated[i/64] &^= 1 << uint(i%64)
}
