// Package testbench generates the deterministic training and validation
// stimulus of the evaluation (Section VI): for each benchmark IP a
// stimulus program that plays the role of the IP's functional-verification
// testbench (short-TS) and of the extended testset that re-exercises the
// same functionality with different data (long-TS).
//
// All generators are seeded and fully deterministic, so every experiment
// in EXPERIMENTS.md is reproducible bit for bit.
package testbench

import (
	"fmt"
	"math/rand"

	"psmkit/internal/hdl"
	"psmkit/internal/logic"
)

// Options tunes a stimulus program.
type Options struct {
	// Seed selects the stream.
	Seed int64
	// Stalls enables pipeline-stall injection (Camellia only). The
	// evaluation enables it in the long-TS validation runs to expose the
	// PSMs to behaviour absent from training, which is what drives the
	// wrong-state predictions of Table III.
	Stalls bool
}

// Generator produces one input valuation per clock cycle.
type Generator interface {
	// Next returns the primary-input valuation for the next cycle.
	Next() hdl.Values
}

// For returns the stimulus generator matching a core's name.
func For(core hdl.Core, opts Options) (Generator, error) {
	switch core.Name() {
	case "RAM":
		return newRAMGen(opts), nil
	case "MultSum":
		return newMACGen(opts), nil
	case "AES":
		return newAESGen(opts), nil
	case "Camellia":
		return newCamGen(opts), nil
	default:
		return nil, fmt.Errorf("testbench: no stimulus program for core %q", core.Name())
	}
}

// Drive runs a core for n cycles with the generator, returning the
// simulator used (observers can be attached before calling Step manually;
// most callers use experiment's helpers instead).
func Drive(sim *hdl.Simulator, gen Generator, n int) error {
	for i := 0; i < n; i++ {
		if _, err := sim.Step(gen.Next()); err != nil {
			return err
		}
	}
	return nil
}

// --- RAM -----------------------------------------------------------------

// ramGen cycles through idle periods, register-style write bursts (the
// same address rewritten with data whose per-cycle Hamming distance
// varies — the data-dependent behaviour the paper's linear regression
// calibrates), and polling read bursts.
type ramGen struct {
	rng   *rand.Rand
	mode  int // 0 idle, 1 write, 2 read
	left  int
	addr  uint64
	data  uint64
	zero1 logic.Vector
	one1  logic.Vector
}

func newRAMGen(opts Options) *ramGen {
	return &ramGen{
		rng:   rand.New(rand.NewSource(opts.Seed)),
		zero1: logic.New(1),
		one1:  logic.FromUint64(1, 1),
	}
}

func (g *ramGen) Next() hdl.Values {
	if g.left == 0 {
		switch g.rng.Intn(4) {
		case 0:
			g.mode, g.left = 0, 2+g.rng.Intn(18) // idle
		case 1, 2:
			g.mode, g.left = 1, 24+g.rng.Intn(96) // write burst
			g.addr = uint64(g.rng.Intn(1 << 10))
			g.data = g.rng.Uint64() & 0xffffffff
		default:
			g.mode, g.left = 2, 16+g.rng.Intn(64) // read (polling) burst
			g.addr = uint64(g.rng.Intn(1 << 10))
		}
	}
	g.left--
	switch g.mode {
	case 1:
		// Flip a varying number of data bits so the write power spans a
		// wide Hamming range (always at least a few: a write burst that
		// rewrites identical data cycle after cycle is not a realistic
		// payload and would make write power indistinguishable from idle).
		k := 4 + g.rng.Intn(29)
		for i := 0; i < k; i++ {
			g.data ^= 1 << uint(g.rng.Intn(32))
		}
		return hdl.Values{
			"en": g.one1, "we": g.one1,
			"addr":  logic.FromUint64(10, g.addr),
			"wdata": logic.FromUint64(32, g.data),
		}
	case 2:
		return hdl.Values{
			"en": g.one1, "we": g.zero1,
			"addr":  logic.FromUint64(10, g.addr),
			"wdata": logic.New(32),
		}
	default:
		return hdl.Values{
			"en": g.zero1, "we": g.zero1,
			"addr": logic.New(10), "wdata": logic.New(32),
		}
	}
}

// --- MultSum ----------------------------------------------------------------

// macGen alternates idle gaps with MAC bursts of random operands.
type macGen struct {
	rng  *rand.Rand
	busy int
	idle int
	off1 logic.Vector
	on1  logic.Vector
	z16  logic.Vector
}

func newMACGen(opts Options) *macGen {
	return &macGen{
		rng:  rand.New(rand.NewSource(opts.Seed)),
		off1: logic.New(1),
		on1:  logic.FromUint64(1, 1),
		z16:  logic.New(16),
	}
}

func (g *macGen) Next() hdl.Values {
	if g.busy == 0 && g.idle == 0 {
		g.busy = 5 + g.rng.Intn(45)
		g.idle = 3 + g.rng.Intn(17)
	}
	if g.busy > 0 {
		g.busy--
		return hdl.Values{
			"a":  logic.FromUint64(16, uint64(g.rng.Intn(1<<16))),
			"b":  logic.FromUint64(16, uint64(g.rng.Intn(1<<16))),
			"c":  logic.FromUint64(16, uint64(g.rng.Intn(1<<16))),
			"en": g.on1,
		}
	}
	g.idle--
	return hdl.Values{"a": g.z16, "b": g.z16, "c": g.z16, "en": g.off1}
}

// --- block-cipher scripting ---------------------------------------------------

// cipherScript sequences keyload / start / busy-wait / gap phases shared
// by the AES and Camellia programs.
type cipherScript struct {
	rng        *rand.Rand
	busyCycles int // cycles between start and done (exclusive of start)
	holdW      int // width of the hold port; 0 when the core has none
	stalls     bool

	keyLoaded bool
	queue     []hdl.Values

	key logic.Vector
	z1  logic.Vector
	o1  logic.Vector
	z12 logic.Vector
}

func newCipherScript(opts Options, busyCycles, holdW int) *cipherScript {
	return &cipherScript{
		rng:        rand.New(rand.NewSource(opts.Seed)),
		busyCycles: busyCycles,
		holdW:      holdW,
		stalls:     opts.Stalls,
		z1:         logic.New(1),
		o1:         logic.FromUint64(1, 1),
		z12:        logic.New(128),
		key:        logic.New(128),
	}
}

func (g *cipherScript) idleValues() hdl.Values {
	v := hdl.Values{
		"key": g.key, "din": g.z12,
		"keyload": g.z1, "start": g.z1, "dec": g.z1, "flush": g.z1,
	}
	if g.holdW > 0 {
		v["hold"] = logic.New(g.holdW)
	}
	return v
}

func (g *cipherScript) rand128() logic.Vector {
	var b [16]byte
	g.rng.Read(b[:])
	return logic.FromBytes(128, b[:])
}

func (g *cipherScript) Next() hdl.Values {
	if len(g.queue) == 0 {
		g.schedule()
	}
	v := g.queue[0]
	g.queue = g.queue[1:]
	return v
}

// schedule enqueues the next protocol episode.
func (g *cipherScript) schedule() {
	push := func(v hdl.Values) { g.queue = append(g.queue, v) }

	if !g.keyLoaded || g.rng.Intn(12) == 0 {
		g.key = g.rand128()
		v := g.idleValues()
		v["keyload"] = g.o1
		push(v)
		g.keyLoaded = true
		for i := g.rng.Intn(4); i > 0; i-- {
			push(g.idleValues())
		}
		return
	}

	// One block operation: start, busy wait (optionally stalled), gap.
	start := g.idleValues()
	start["din"] = g.rand128()
	start["start"] = g.o1
	dec := g.rng.Intn(5) == 0
	if dec {
		start["dec"] = g.o1
	}
	push(start)

	stallAt := map[int]int{} // busy cycle → stall length
	if g.stalls && g.holdW > 0 {
		for k := g.rng.Intn(2); k > 0; k-- {
			stallAt[2+g.rng.Intn(g.busyCycles-4)] = 1 + g.rng.Intn(2)
		}
	}
	for i := 0; i < g.busyCycles; i++ {
		for k := 0; k < stallAt[i]; k++ {
			v := g.idleValues()
			v["hold"] = logic.FromUint64(g.holdW, 3)
			push(v)
		}
		push(g.idleValues())
	}
	for i := g.rng.Intn(9); i > 0; i-- {
		push(g.idleValues())
	}
}

func newAESGen(opts Options) Generator {
	// AES: done arrives 10 cycles after the start cycle.
	return newCipherScript(opts, 10, 0)
}

func newCamGen(opts Options) Generator {
	// Camellia: done arrives 21 cycles after the start cycle.
	return newCipherScript(opts, 21, 2)
}
