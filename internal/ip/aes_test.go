package ip

import (
	"bytes"
	"crypto/aes"
	"math/rand"
	"testing"
	"testing/quick"

	"psmkit/internal/hdl"
	"psmkit/internal/logic"
)

func aesIdleIn() hdl.Values {
	return hdl.Values{
		"key":     logic.New(128),
		"din":     logic.New(128),
		"keyload": logic.New(1),
		"start":   logic.New(1),
		"dec":     logic.New(1),
		"flush":   logic.New(1),
	}
}

// aesRunBlock loads the key, starts one operation and runs until done,
// returning the output block and the number of cycles from start to done.
func aesRunBlock(t *testing.T, sim *hdl.Simulator, key, din []byte, dec bool) ([]byte, int) {
	t.Helper()
	in := aesIdleIn()
	in["key"] = logic.FromBytes(128, key)
	in["keyload"] = logic.FromUint64(1, 1)
	sim.MustStep(in)

	in = aesIdleIn()
	in["din"] = logic.FromBytes(128, din)
	in["start"] = logic.FromUint64(1, 1)
	if dec {
		in["dec"] = logic.FromUint64(1, 1)
	}
	out := sim.MustStep(in)
	cycles := 1
	for out["done"].Bit(0) != 1 {
		out = sim.MustStep(aesIdleIn())
		cycles++
		if cycles > 100 {
			t.Fatal("AES did not finish within 100 cycles")
		}
	}
	return out["dout"].Bytes(), cycles
}

func TestAESSboxProperties(t *testing.T) {
	if aesSbox[0x00] != 0x63 {
		t.Errorf("Sbox[0] = %#x, want 0x63", aesSbox[0])
	}
	if aesSbox[0x01] != 0x7c {
		t.Errorf("Sbox[1] = %#x, want 0x7c", aesSbox[1])
	}
	if aesSbox[0x53] != 0xed {
		t.Errorf("Sbox[0x53] = %#x, want 0xed (FIPS-197 example)", aesSbox[0x53])
	}
	seen := map[byte]bool{}
	for x := 0; x < 256; x++ {
		s := aesSbox[x]
		if seen[s] {
			t.Fatalf("Sbox not a permutation: duplicate %#x", s)
		}
		seen[s] = true
		if aesInvSbox[s] != byte(x) {
			t.Fatalf("InvSbox[Sbox[%#x]] = %#x", x, aesInvSbox[s])
		}
	}
}

func TestGF256Inverse(t *testing.T) {
	if gf256Inv(0) != 0 {
		t.Error("inv(0) should be 0")
	}
	for x := 1; x < 256; x++ {
		if got := gf256Mul(byte(x), gf256Inv(byte(x))); got != 1 {
			t.Fatalf("x*inv(x) = %#x for x=%#x", got, x)
		}
	}
}

func TestAESFIPS197Vector(t *testing.T) {
	key := logic.MustParseHex(128, "000102030405060708090a0b0c0d0e0f").Bytes()
	pt := logic.MustParseHex(128, "00112233445566778899aabbccddeeff").Bytes()
	want := logic.MustParseHex(128, "69c4e0d86a7b0430d8cdb78070b4c55a").Bytes()
	sim := hdl.NewSimulator(NewAES128())
	got, cycles := aesRunBlock(t, sim, key, pt, false)
	if !bytes.Equal(got, want) {
		t.Errorf("ciphertext = %x, want %x", got, want)
	}
	if cycles != 11 {
		t.Errorf("encryption took %d cycles, want 11 (start + 10 rounds)", cycles)
	}
}

func TestAESMatchesCryptoAES(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sim := hdl.NewSimulator(NewAES128())
	for i := 0; i < 25; i++ {
		key := make([]byte, 16)
		pt := make([]byte, 16)
		rng.Read(key)
		rng.Read(pt)
		want := make([]byte, 16)
		c, err := aes.NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		c.Encrypt(want, pt)
		got, _ := aesRunBlock(t, sim, key, pt, false)
		if !bytes.Equal(got, want) {
			t.Fatalf("iter %d: core %x != crypto/aes %x", i, got, want)
		}
	}
}

func TestAESDecryptMatchesCryptoAES(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	sim := hdl.NewSimulator(NewAES128())
	for i := 0; i < 25; i++ {
		key := make([]byte, 16)
		ct := make([]byte, 16)
		rng.Read(key)
		rng.Read(ct)
		want := make([]byte, 16)
		c, err := aes.NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		c.Decrypt(want, ct)
		got, _ := aesRunBlock(t, sim, key, ct, true)
		if !bytes.Equal(got, want) {
			t.Fatalf("iter %d: core %x != crypto/aes %x", i, got, want)
		}
	}
}

func TestAESEncryptDecryptRoundTrip(t *testing.T) {
	f := func(keySeed, ptSeed int64) bool {
		rng := rand.New(rand.NewSource(keySeed))
		key := make([]byte, 16)
		rng.Read(key)
		rng = rand.New(rand.NewSource(ptSeed))
		pt := make([]byte, 16)
		rng.Read(pt)
		sim := hdl.NewSimulator(NewAES128())
		ct, _ := aesRunBlock(t, sim, key, pt, false)
		back, _ := aesRunBlock(t, sim, key, ct, true)
		return bytes.Equal(back, pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestAESKeyScheduleInverse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var rk aesBlock
		for i := range rk {
			rk[i] = byte(rng.Intn(256))
		}
		for r := 1; r <= 10; r++ {
			next := aesNextRoundKey(rk, r)
			if aesPrevRoundKey(next, r) != rk {
				return false
			}
			rk = next
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAESMixColumnsInverse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var b aesBlock
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		orig := b
		aesMixColumns(&b)
		aesInvMixColumns(&b)
		return b == orig
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAESShiftRowsInverse(t *testing.T) {
	var b aesBlock
	for i := range b {
		b[i] = byte(i)
	}
	orig := b
	aesShiftRows(&b)
	if b == orig {
		t.Error("ShiftRows is identity")
	}
	aesInvShiftRows(&b)
	if b != orig {
		t.Error("InvShiftRows does not invert ShiftRows")
	}
}

func TestAESDonePulsesOneCycle(t *testing.T) {
	sim := hdl.NewSimulator(NewAES128())
	key := make([]byte, 16)
	pt := make([]byte, 16)
	_, _ = aesRunBlock(t, sim, key, pt, false)
	out := sim.MustStep(aesIdleIn())
	if out["done"].Bit(0) != 0 {
		t.Error("done stayed high after one cycle")
	}
}

func TestAESDoutHoldsAfterDone(t *testing.T) {
	sim := hdl.NewSimulator(NewAES128())
	key := logic.MustParseHex(128, "000102030405060708090a0b0c0d0e0f").Bytes()
	pt := logic.MustParseHex(128, "00112233445566778899aabbccddeeff").Bytes()
	got, _ := aesRunBlock(t, sim, key, pt, false)
	for i := 0; i < 5; i++ {
		out := sim.MustStep(aesIdleIn())
		if !bytes.Equal(out["dout"].Bytes(), got) {
			t.Fatal("dout drifted while idle")
		}
	}
}

func TestAESFlushClears(t *testing.T) {
	sim := hdl.NewSimulator(NewAES128())
	key := make([]byte, 16)
	key[0] = 1
	in := aesIdleIn()
	in["key"] = logic.FromBytes(128, key)
	in["keyload"] = logic.FromUint64(1, 1)
	sim.MustStep(in)
	in = aesIdleIn()
	in["din"] = logic.FromBytes(128, key)
	in["start"] = logic.FromUint64(1, 1)
	sim.MustStep(in)
	// flush mid-operation
	in = aesIdleIn()
	in["flush"] = logic.FromUint64(1, 1)
	out := sim.MustStep(in)
	if !out["dout"].IsZero() || out["done"].Bit(0) != 0 {
		t.Error("flush did not clear outputs")
	}
	// core is idle again: a fresh block works
	pt := logic.MustParseHex(128, "00112233445566778899aabbccddeeff").Bytes()
	want := make([]byte, 16)
	c, _ := aes.NewCipher(key)
	c.Encrypt(want, pt)
	got, _ := aesRunBlock(t, sim, key, pt, false)
	if !bytes.Equal(got, want) {
		t.Errorf("after flush: %x want %x", got, want)
	}
}

func TestAESTableIShape(t *testing.T) {
	a := NewAES128()
	if got := hdl.PortWidths(a, hdl.In); got != 260 {
		t.Errorf("PI bits = %d, want 260", got)
	}
	if got := hdl.PortWidths(a, hdl.Out); got != 129 {
		t.Errorf("PO bits = %d, want 129", got)
	}
	if got := hdl.MemoryBits(a); got != 647 {
		t.Errorf("memory bits = %d, want 647", got)
	}
}

func TestAESIdleIsGated(t *testing.T) {
	a := NewAES128()
	act := watch(a)
	sim := hdl.NewSimulator(a)
	sim.MustStep(aesIdleIn())
	sim.MustStep(aesIdleIn())
	for i, e := range act.elems {
		if e.IsMemory() && e.Name() != "aes.phase" && e.Name() != "aes.done" && e.Name() != "aes.dout" {
			if !act.gated(i) {
				t.Errorf("element %s ungated while idle", e.Name())
			}
		}
	}
}
