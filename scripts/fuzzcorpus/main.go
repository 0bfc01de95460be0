// Command fuzzcorpus (re)generates the committed seed corpora of
// FuzzWireScan (internal/stream/testdata/fuzz/FuzzWireScan),
// FuzzRegressionMerge (internal/stats/testdata/fuzz/FuzzRegressionMerge),
// FuzzJoinMatchesOracle
// (internal/psm/testdata/fuzz/FuzzJoinMatchesOracle) and
// FuzzMineMatchesOracle
// (internal/mining/testdata/fuzz/FuzzMineMatchesOracle), in the native Go
// fuzzing corpus-file format. Run from the repo root:
//
//	go run ./scripts/fuzzcorpus
//
// The FuzzWireScan seeds mirror its f.Add set: canonical encoder output,
// every fallback trigger and the framing edges. The FuzzRegressionMerge
// seeds cover calibration-shaped pairs, the whole float64 exponent range,
// exact cancellation, a constant regressor and every special value. The
// FuzzJoinMatchesOracle seeds cover each merge policy, one to six
// chains, and every sample shape (next-states, small and heavy noisy
// runs, constant pairs). The FuzzMineMatchesOracle seeds cover more
// than 64 candidates, comparison triples and polarity pairs, a 130-bit
// bus, the MaxAtoms cap, and single-row, constant and one-trace sets.
// `go test` replays every corpus even without -fuzz.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

const header = `{"signals":[{"name":"a","width":8},{"name":"b","width":64}],"inputs":["a"]}`

func main() {
	seeds := map[string]string{
		"canonical":       header + "\n" + `{"v":["ff","deadbeefcafebabe"],"p":0.0125}` + "\n",
		"empty_and_nop":   header + "\n" + `{"v":[],"p":-2.5e-3}` + "\n" + `{"v":["0f","1"]}`,
		"crlf":            header + "\r\n\r\n" + `{"v":["ff","0"],"p":3}` + "\r\n",
		"field_reorder":   header + "\n" + `{"p":1,"v":["ff","0"]}` + "\n",
		"overflow_number": header + "\n" + `{"v":["ff","0"],"p":1e999}` + "\n",
		"null_then_bad":   header + "\n" + `null` + "\n" + `{"v":["ff","0"],"p":01}` + "\n",
		"long_line":       header + "\n" + `{"v":["` + strings.Repeat("f", 200) + `","0"],"p":1}` + "\n",
		"empty_schema":    `{"signals":[]}` + "\n",
		"bad_header":      "not json\n",
		"empty_stream":    "",
		"spaced":          header + "\n" + ` { "v" : [ "ff" , "0" ] , "p" : 5E-7 } ` + "\n",
		"unknown_field":   header + "\n" + `{"v":["ff","0"],"p":1,"x":{"y":[1,2]}}` + "\n",
		"escaped_hex":     header + "\n" + `{"v":["\u0066f","0"],"p":1}` + "\n",
		"unicode_value":   header + "\n" + `{"v":["ü","0"],"p":1}` + "\n",
		"nan_like":        header + "\n" + `{"v":["ff","0"],"p":NaN}` + "\n",
	}
	write(filepath.Join("internal", "stream", "testdata", "fuzz", "FuzzWireScan"), seeds)
	write(filepath.Join("internal", "stats", "testdata", "fuzz", "FuzzRegressionMerge"), regressionSeeds())
	write(filepath.Join("internal", "psm", "testdata", "fuzz", "FuzzJoinMatchesOracle"), joinSeeds())
	write(filepath.Join("internal", "mining", "testdata", "fuzz", "FuzzMineMatchesOracle"), mineSeeds())
}

// mineSeeds encodes FuzzMineMatchesOracle inputs: the signal count minus
// one, the config index (0 default, 1 relaxed, 2 keep-all), one width
// byte per signal (b%6 picks 1, 1, 4, 8, 8 or 130 bits), then one
// (a, b) pair per row — a ≥ 0xF0 starts a new trace, otherwise signal
// a%n takes the value b.
func mineSeeds() map[string]string {
	// rows draws n deterministic row pairs over nsig signals that change
	// one signal at a time, with a new trace every `every` rows (0 = one
	// trace) and values below `span`, so runs and comparisons both vary.
	rows := func(n, nsig, every int, span byte, seed uint32) []byte {
		var b []byte
		x := seed | 1
		next := func() byte {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			return byte(x)
		}
		for i := 0; i < n; i++ {
			if every > 0 && i > 0 && i%every == 0 {
				b = append(b, 0xF0)
				b = append(b, 0)
			}
			b = append(b, byte(int(next())%nsig), next()%span)
		}
		return b
	}
	input := func(cfg byte, widths []byte, body []byte) string {
		b := append([]byte{byte(len(widths) - 1), cfg}, widths...)
		return string(append(b, body...))
	}
	repeat := func(w byte, n int) []byte {
		out := make([]byte, n)
		for i := range out {
			out[i] = w
		}
		return out
	}
	mixed := []byte{0, 0, 2, 2, 3, 3, 4}
	return map[string]string{
		"mixed_default":   input(0, mixed, rows(120, 7, 0, 255, 1)),
		"mixed_relaxed":   input(1, mixed, rows(120, 7, 40, 16, 2)),
		"many_candidates": input(0, repeat(3, 12), rows(200, 12, 70, 8, 3)),
		"keep_all_cap":    input(2, repeat(2, 9), rows(150, 9, 50, 4, 4)),
		"wide_bus":        input(1, []byte{0, 5, 5, 5, 1}, rows(160, 5, 55, 255, 5)),
		"polarity_only":   input(0, repeat(0, 6), rows(100, 6, 0, 2, 6)),
		"single_row":      input(0, mixed, []byte{2, 5}),
		"constant":        input(0, mixed, rows(40, 1, 0, 1, 7)),
		"one_row_traces":  input(1, mixed, []byte{0, 1, 0xF0, 0, 2, 3, 0xF0, 0, 4, 9}),
		"max_rows":        input(2, repeat(5, 16), rows(520, 16, 300, 255, 8)),
	}
}

// joinSeeds encodes FuzzJoinMatchesOracle inputs: a policy byte, then
// one (a, b, c) triple per state — a picks the power level (a%6) and the
// pattern kind, and a ≥ 240 starts a new chain; b picks the sample shape
// (b%4: one sample, a small or a heavy noisy run, a constant pair); c
// picks the noise and the proposition.
func joinSeeds() map[string]string {
	// states draws n deterministic states whose shape is fixed by shape
	// (-1 = mixed) and which break into a new chain every `every` states.
	states := func(policy byte, n, every, shape int, seed uint32) string {
		b := []byte{policy}
		x := seed | 1
		next := func() byte {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			return byte(x)
		}
		for i := 0; i < n; i++ {
			a := next() % 240
			if every > 0 && i > 0 && i%every == 0 {
				a = 240 + a%6
			}
			sh := next()
			if shape >= 0 {
				sh = sh&^3 | byte(shape)
			}
			b = append(b, a, sh, next())
		}
		return string(b)
	}
	return map[string]string{
		"one_chain":      states(0, 12, 0, -1, 1),
		"two_chains":     states(0, 16, 8, -1, 2),
		"six_chains":     states(0, 30, 5, -1, 3),
		"next_states":    states(0, 20, 7, 0, 4),
		"small_runs":     states(0, 20, 10, 1, 5),
		"heavy_runs":     states(0, 20, 10, 2, 6),
		"constant_pairs": states(0, 20, 10, 3, 7),
		"tight_cv":       states(1, 24, 6, -1, 8),
		"tight_epsilon":  states(2, 24, 6, -1, 9),
		"max_states":     states(0, 70, 12, -1, 10),
	}
}

// pair encodes one FuzzRegressionMerge sample: the kind byte, x as an
// int8 plus a 1/256 fraction, and y as a sign bit with a 7-bit exponent
// (16 binades a step, 64 = 2⁰) followed by 56 mantissa bits.
func pair(kind byte, x int8, frac, yExp byte, mant uint64) []byte {
	b := []byte{kind, byte(x), frac, yExp}
	for i := 6; i >= 0; i-- {
		b = append(b, byte(mant>>(8*uint(i))))
	}
	return b
}

func regressionSeeds() map[string]string {
	input := func(group byte, pairs ...[]byte) string {
		b := []byte{group}
		for _, p := range pairs {
			b = append(b, p...)
		}
		return string(b)
	}
	var power, wide, cancel, constant, specials [][]byte
	for i := 0; i < 16; i++ {
		m := uint64(0x9e3779b97f4a7c15) * uint64(i+1)
		// Hamming distances against power at 2⁻¹⁶..2⁻¹⁵ (exponent byte 63).
		power = append(power, pair(0, int8(i%9), 0, 63, m))
		wide = append(wide, pair(1, int8(i*7-50), byte(i*31), byte(i*8), m))
		cancel = append(cancel, pair(2, int8(i%4), 0, 64+byte(i%3), m), pair(2, int8(i%4), 0, 0x80|(64+byte(i%3)), m))
		constant = append(constant, pair(3, 5, 0, 60+byte(i%5), m))
	}
	// Kind 7, 15, … 55 selects NaN, +Inf, -Inf, 1e300, -1e300, 0, -0.
	for k := 0; k < 7; k++ {
		specials = append(specials, pair(0, 1, 0, 64, 1), pair(byte(8*k+7), int8(k), 0, 64, 0))
	}
	return map[string]string{
		"empty":    input(0),
		"single":   input(1, pair(0, 3, 0, 64, 1)),
		"power":    input(2, power...),
		"wide":     input(3, wide...),
		"cancel":   input(4, cancel...),
		"constant": input(5, constant...),
		"specials": input(6, specials...),
	}
}

// write stores each seed as one corpus file, seed_<name>.
func write(dir string, seeds map[string]string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	names := make([]string, 0, len(seeds))
	for name := range seeds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(seeds[name]) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, "seed_"+name), []byte(body), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}
