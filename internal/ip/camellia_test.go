package ip

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"psmkit/internal/hdl"
	"psmkit/internal/logic"
)

func camIdleIn() hdl.Values {
	return hdl.Values{
		"key":     logic.New(128),
		"din":     logic.New(128),
		"keyload": logic.New(1),
		"start":   logic.New(1),
		"dec":     logic.New(1),
		"flush":   logic.New(1),
		"hold":    logic.New(2),
	}
}

func camRunBlock(t *testing.T, sim *hdl.Simulator, key, din []byte, dec bool) ([]byte, int) {
	t.Helper()
	in := camIdleIn()
	in["key"] = logic.FromBytes(128, key)
	in["keyload"] = logic.FromUint64(1, 1)
	sim.MustStep(in)

	in = camIdleIn()
	in["din"] = logic.FromBytes(128, din)
	in["start"] = logic.FromUint64(1, 1)
	if dec {
		in["dec"] = logic.FromUint64(1, 1)
	}
	out := sim.MustStep(in)
	cycles := 1
	for out["done"].Bit(0) != 1 {
		out = sim.MustStep(camIdleIn())
		cycles++
		if cycles > 200 {
			t.Fatal("Camellia did not finish within 200 cycles")
		}
	}
	return out["dout"].Bytes(), cycles
}

// RFC 3713 128-bit test vector.
var (
	camKey = logic.MustParseHex(128, "0123456789abcdeffedcba9876543210").Bytes()
	camCT  = logic.MustParseHex(128, "67673138549669730857065648eabe43").Bytes()
	camPT  = camKey
)

func TestCamelliaRFC3713Vector(t *testing.T) {
	sim := hdl.NewSimulator(NewCamellia128())
	got, cycles := camRunBlock(t, sim, camKey, camPT, false)
	if !bytes.Equal(got, camCT) {
		t.Errorf("ciphertext = %x, want %x", got, camCT)
	}
	// start + 18 rounds + 2 FL layers + output = 22 cycles
	if cycles != 22 {
		t.Errorf("block took %d cycles, want 22", cycles)
	}
}

func TestCamelliaDecrypt(t *testing.T) {
	sim := hdl.NewSimulator(NewCamellia128())
	got, _ := camRunBlock(t, sim, camKey, camCT, true)
	if !bytes.Equal(got, camPT) {
		t.Errorf("plaintext = %x, want %x", got, camPT)
	}
}

func TestCamelliaCoreMatchesReferenceBlock(t *testing.T) {
	f := func(keySeed, ptSeed int64) bool {
		rng := rand.New(rand.NewSource(keySeed))
		key := make([]byte, 16)
		rng.Read(key)
		rng = rand.New(rand.NewSource(ptSeed))
		pt := make([]byte, 16)
		rng.Read(pt)

		kl := cam128{hi: be64(key[:8]), lo: be64(key[8:])}
		sk := camExpand128(kl)
		hi, lo := camEncryptBlock(sk, be64(pt[:8]), be64(pt[8:]))
		want := from128(cam128{hi: hi, lo: lo}).Bytes()

		sim := hdl.NewSimulator(NewCamellia128())
		got, _ := camRunBlock(t, sim, key, pt, false)
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestCamelliaRoundTrip(t *testing.T) {
	f := func(keySeed, ptSeed int64) bool {
		rng := rand.New(rand.NewSource(keySeed))
		key := make([]byte, 16)
		rng.Read(key)
		rng = rand.New(rand.NewSource(ptSeed))
		pt := make([]byte, 16)
		rng.Read(pt)
		sim := hdl.NewSimulator(NewCamellia128())
		ct, _ := camRunBlock(t, sim, key, pt, false)
		back, _ := camRunBlock(t, sim, key, ct, true)
		return bytes.Equal(back, pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestCamelliaSubkeyReversalInvolution(t *testing.T) {
	kl := cam128{hi: 0x0123456789abcdef, lo: 0xfedcba9876543210}
	s := camExpand128(kl)
	r := s.reversed().reversed()
	if r != s {
		t.Error("reversed twice is not the identity")
	}
}

func TestCamelliaFLInverse(t *testing.T) {
	f := func(x, k uint64) bool {
		return camFLInv(camFL(x, k), k) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCamelliaRotl128(t *testing.T) {
	c := cam128{hi: 0x8000000000000000, lo: 1}
	// bit 127 wraps to bit 0, bit 63 moves to bit 64... for this value:
	// hi' = hi<<1 | lo>>63 = 0, lo' = lo<<1 | hi>>63 = 3.
	if got := c.rotl(1); got.hi != 0 || got.lo != 3 {
		t.Errorf("rotl(1) = %+x", got)
	}
	if got := c.rotl(64); got.hi != 1 || got.lo != 0x8000000000000000 {
		t.Errorf("rotl(64) = %+x", got)
	}
	if got := c.rotl(0); got != c {
		t.Errorf("rotl(0) = %+x", got)
	}
	// rotl(a) then rotl(128-a) is identity
	for _, n := range []uint{15, 30, 45, 60, 77, 94, 111} {
		if got := c.rotl(n).rotl(128 - n); got != c {
			t.Errorf("rotl(%d) round trip failed", n)
		}
	}
}

func TestCamelliaSboxDerivations(t *testing.T) {
	// Spot-check RFC-specified derivations.
	for _, x := range []int{0, 1, 0x53, 0xa7, 0xff} {
		if camSbox2[x] != rotl8(camSbox1[x], 1) {
			t.Errorf("SBOX2[%#x] wrong", x)
		}
		if camSbox3[x] != rotl8(camSbox1[x], 7) {
			t.Errorf("SBOX3[%#x] wrong", x)
		}
		if camSbox4[x] != camSbox1[rotl8(byte(x), 1)] {
			t.Errorf("SBOX4[%#x] wrong", x)
		}
	}
	// SBOX1 must be a permutation.
	seen := map[byte]bool{}
	for _, v := range camSbox1 {
		if seen[v] {
			t.Fatalf("SBOX1 duplicate %#x", v)
		}
		seen[v] = true
	}
}

func TestCamelliaHoldStallsPipeline(t *testing.T) {
	sim := hdl.NewSimulator(NewCamellia128())
	in := camIdleIn()
	in["key"] = logic.FromBytes(128, camKey)
	in["keyload"] = logic.FromUint64(1, 1)
	sim.MustStep(in)
	in = camIdleIn()
	in["din"] = logic.FromBytes(128, camPT)
	in["start"] = logic.FromUint64(1, 1)
	out := sim.MustStep(in)
	// stall for 10 cycles mid-block
	for i := 0; i < 10; i++ {
		in = camIdleIn()
		in["hold"] = logic.FromUint64(2, 3)
		out = sim.MustStep(in)
		if out["done"].Bit(0) == 1 {
			t.Fatal("done during stall")
		}
	}
	cycles := 1
	for out["done"].Bit(0) != 1 {
		out = sim.MustStep(camIdleIn())
		cycles++
		if cycles > 200 {
			t.Fatal("never finished after stall")
		}
	}
	if !bytes.Equal(out["dout"].Bytes(), camCT) {
		t.Errorf("stalled block produced %x", out["dout"].Bytes())
	}
}

func TestCamelliaFlushAborts(t *testing.T) {
	sim := hdl.NewSimulator(NewCamellia128())
	in := camIdleIn()
	in["key"] = logic.FromBytes(128, camKey)
	in["keyload"] = logic.FromUint64(1, 1)
	sim.MustStep(in)
	in = camIdleIn()
	in["din"] = logic.FromBytes(128, camPT)
	in["start"] = logic.FromUint64(1, 1)
	sim.MustStep(in)
	in = camIdleIn()
	in["flush"] = logic.FromUint64(1, 1)
	out := sim.MustStep(in)
	if !out["dout"].IsZero() {
		t.Error("flush did not clear dout")
	}
	// key survives a flush; a fresh block still encrypts correctly
	in = camIdleIn()
	in["din"] = logic.FromBytes(128, camPT)
	in["start"] = logic.FromUint64(1, 1)
	out = sim.MustStep(in)
	cycles := 1
	for out["done"].Bit(0) != 1 {
		out = sim.MustStep(camIdleIn())
		cycles++
	}
	if !bytes.Equal(out["dout"].Bytes(), camCT) {
		t.Errorf("after flush: %x", out["dout"].Bytes())
	}
}

func TestCamelliaTableIShape(t *testing.T) {
	c := NewCamellia128()
	if got := hdl.PortWidths(c, hdl.In); got != 262 {
		t.Errorf("PI bits = %d, want 262", got)
	}
	if got := hdl.PortWidths(c, hdl.Out); got != 129 {
		t.Errorf("PO bits = %d, want 129", got)
	}
	want := 128 + 128 + 64 + 64 + 5 + 1 + 1 + 128 + 1 + 4*64
	if got := hdl.MemoryBits(c); got != want {
		t.Errorf("memory bits = %d, want %d", got, want)
	}
}

func TestCamelliaKeyUnitBurstActivity(t *testing.T) {
	// The key-schedule unit must produce activity bursts during busy
	// cycles that are absent in non-burst cycles: check that rot_net
	// toggles on steps 1,5,9,... and not on others.
	c := NewCamellia128()
	act := watch(c)
	rot := act.index(c.rotNet)
	sim := hdl.NewSimulator(c)
	in := camIdleIn()
	in["key"] = logic.FromBytes(128, camKey)
	in["keyload"] = logic.FromUint64(1, 1)
	sim.MustStep(in)
	act.total()

	in = camIdleIn()
	in["din"] = logic.FromBytes(128, camPT)
	in["start"] = logic.FromUint64(1, 1)
	sim.MustStep(in)
	act.total()

	burstCycles := 0
	for i := 0; i < 21; i++ {
		sim.MustStep(camIdleIn())
		if act.drain(rot) > 0 {
			burstCycles++
		}
		act.total()
	}
	if burstCycles < 4 || burstCycles > 6 {
		t.Errorf("burst cycles = %d, want ~5 (every 4th busy cycle)", burstCycles)
	}
}

// activity binds a toggle bank over a core's elements — the columns
// the power estimator reads — so tests observe each element's clock
// gating and switching activity. Slot i is Elements()[i].
type activity struct {
	elems []*hdl.Reg
	bank  *hdl.ToggleBank
}

func watch(c hdl.Core) *activity {
	elems := c.Elements()
	return &activity{elems: elems, bank: hdl.NewToggleBank(elems)}
}

// index returns r's slot.
func (a *activity) index(r *hdl.Reg) int {
	for i, e := range a.elems {
		if e == r {
			return i
		}
	}
	panic("element not bound: " + r.Name())
}

// gated reports whether slot i's clock is gated this cycle.
func (a *activity) gated(i int) bool { return a.bank.GatedPlane()[i/64]&(1<<uint(i%64)) != 0 }

// drain returns and clears slot i's toggles since its last drain.
func (a *activity) drain(i int) int { return a.bank.DrainSlot(i) }

// total drains every slot and returns the summed toggles.
func (a *activity) total() int {
	n := 0
	for i := range a.elems {
		n += a.drain(i)
	}
	return n
}
