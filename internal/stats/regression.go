package stats

import (
	"errors"
	"math"
	"math/big"
	"math/bits"
)

// ErrConstantRegressor is returned by a fit whose regressor never varies:
// the slope is undefined.
var ErrConstantRegressor = errors.New("stats: constant regressor")

// ErrNonFinite is returned by a fit over a non-finite sample (NaN or
// ±Inf), or whose rounded sums leave the float64 range: no line is
// fitted.
var ErrNonFinite = errors.New("stats: non-finite regression data")

// The five sums a Regression keeps, in storage order.
const (
	sumX = iota
	sumXX
	sumY
	sumXY
	sumYY
	numSums
)

// Regression is the exact, mergeable accumulator behind every
// least-squares fit in this package. It holds ⟨n, Σx, Σx², Σy, Σxy, Σy²⟩
// without rounding: every float64 is an integer times a power of two, and
// so is the product of two (math/bits.Mul64 of the significands), so each
// sum is kept as an exact integer scaled by a power of two. Sums are
// rounded once, correctly (to nearest, ties to even), when a fit reads
// them.
//
// The contract this buys: Add and Merge in any order, under any
// grouping, give bit-identical Sums, Fit and Pearson. A merge tree is
// therefore free to pool partial accumulators the way Moments pools
// power attributes, and still reproduce a single pass over the samples.
// It holds for every finite sample: products and sums never overflow or
// underflow, only their final rounding can (to ±Inf, or towards 0). A
// NaN or ±Inf sample poisons the accumulator: Fit returns ErrNonFinite
// and Pearson 0.
//
// Each sum k is the two's-complement integer w[k] times 2^exp[k]. The
// window keeps two sign bits, so adding a term below 2¹⁹⁰ in magnitude
// never wraps; a sum whose value needs more bits moves to big[k] (value
// big[k]·2^exp[k]). The big array and its integers are never modified in
// place, so copies are independent. The zero value is an empty
// accumulator.
type Regression struct {
	n        int
	w        [numSums]window
	big      *[numSums]*big.Int
	exp      [numSums]int16
	poisoned bool
}

// N returns the number of samples added.
func (r *Regression) N() int { return r.n }

// Add incorporates one (x, y) sample. It does not allocate unless a
// sum's exact value outgrows its in-place window.
func (r *Regression) Add(x, y float64) {
	r.n++
	if r.poisoned {
		return
	}
	if !isFinite(x) || !isFinite(y) {
		r.poison()
		return
	}
	nx, mx, ex := split(x)
	ny, my, ey := split(y)
	r.add(sumX, nx, 0, mx, ex)
	r.add(sumY, ny, 0, my, ey)
	hi, lo := bits.Mul64(mx, mx)
	r.add(sumXX, false, hi, lo, 2*ex)
	hi, lo = bits.Mul64(mx, my)
	r.add(sumXY, nx != ny, hi, lo, ex+ey)
	hi, lo = bits.Mul64(my, my)
	r.add(sumYY, false, hi, lo, 2*ey)
}

// Merge pools another accumulator into r. Pooling is exact: the result
// equals having added both sample sets to one accumulator, in any order.
func (r *Regression) Merge(o *Regression) {
	r.n += o.n
	if o.poisoned {
		r.poison()
	}
	if r.poisoned {
		return
	}
	for k := 0; k < numSums; k++ {
		r.merge(k, o)
	}
}

// Sums returns Σx, Σx², Σy, Σxy and Σy², each rounded once to the
// nearest float64 (ties to even). A poisoned accumulator returns NaNs.
func (r *Regression) Sums() (sx, sxx, sy, sxy, syy float64) {
	if r.poisoned {
		nan := math.NaN()
		return nan, nan, nan, nan, nan
	}
	return r.value(sumX), r.value(sumXX), r.value(sumY), r.value(sumXY), r.value(sumYY)
}

// Fit returns the least-squares line y = a + b·x over the samples, with
// the Pearson correlation of the same sums. It fails with
// ErrInsufficientData below two samples, ErrNonFinite on non-finite
// data and ErrConstantRegressor when x has no spread.
func (r *Regression) Fit() (LinearFit, error) {
	if r.n < 2 {
		return LinearFit{}, ErrInsufficientData
	}
	if r.poisoned {
		return LinearFit{}, ErrNonFinite
	}
	sx, sxx, sy, sxy, syy := r.Sums()
	n := float64(r.n)
	den := sxx - sx*sx/n
	if den == 0 {
		return LinearFit{}, ErrConstantRegressor
	}
	slope := (sxy - sx*sy/n) / den
	intercept := (sy - slope*sx) / n
	if !isFinite(slope) || !isFinite(intercept) {
		return LinearFit{}, ErrNonFinite
	}
	return LinearFit{Slope: slope, Intercept: intercept, R: pearson(n, sx, sxx, sy, sxy, syy)}, nil
}

// Pearson returns the Pearson correlation of the samples: 0 below two
// samples, when either variable is constant, or on non-finite data.
func (r *Regression) Pearson() float64 {
	if r.n < 2 || r.poisoned {
		return 0
	}
	sx, sxx, sy, sxy, syy := r.Sums()
	return pearson(float64(r.n), sx, sxx, sy, sxy, syy)
}

// pearson is the correlation of n samples given their rounded sums,
// clamped to [-1, 1]; 0 when a variance vanishes or the result is NaN.
func pearson(n, sx, sxx, sy, sxy, syy float64) float64 {
	if n < 2 {
		return 0
	}
	covn := sxy - sx*sy/n
	vxn := sxx - sx*sx/n
	vyn := syy - sy*sy/n
	if !(vxn > 0) || !(vyn > 0) {
		return 0
	}
	r := covn / math.Sqrt(vxn*vyn)
	switch {
	case math.IsNaN(r):
		return 0
	case r > 1:
		return 1
	case r < -1:
		return -1
	}
	return r
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// poison marks the accumulator non-finite and drops its sums.
func (r *Regression) poison() {
	*r = Regression{n: r.n, poisoned: true}
}

// split decomposes a finite v into ±m·2^e with m odd (or m = 0 for ±0).
func split(v float64) (neg bool, m uint64, e int) {
	b := math.Float64bits(v)
	m = b & (1<<52 - 1)
	e = int(b >> 52 & 0x7ff)
	if e == 0 {
		e = 1 // subnormal
	} else {
		m |= 1 << 52
	}
	if m == 0 {
		return false, 0, 0
	}
	tz := bits.TrailingZeros64(m)
	return b>>63 != 0, m >> uint(tz), e - 1075 + tz
}

// winWords is the width, in 64-bit words, of a sum's in-place window
// (the window helpers are written out for three words). A power trace's
// Σy² spans about 140 bits (the squared significands over the trace's
// binades, plus the sample count); 190 bits leave room to spare.
const winWords = 3

// window is a two's-complement integer, least significant word first.
type window [winWords]uint64

// spilled reports whether sum k lives in big.
func (r *Regression) spilled(k int) bool { return r.big != nil && r.big[k] != nil }

// add adds ±(hi·2⁶⁴ + lo)·2^e to sum k.
func (r *Regression) add(k int, neg bool, hi, lo uint64, e int) {
	if r.addWindow(k, neg, hi, lo, e) {
		return
	}
	if !r.spilled(k) {
		if d := int(r.exp[k]) - e; d > 0 && r.lower(k, d) && r.addWindow(k, neg, hi, lo, e) {
			return
		}
		r.spill(k)
	}
	t := new(big.Int).SetUint64(hi)
	t.Lsh(t, 64).Or(t, new(big.Int).SetUint64(lo))
	if neg {
		t.Neg(t)
	}
	r.addBig(k, t, e)
}

// addWindow is add's fast path, the one every calibration walk takes:
// it adds the term to sum k in place when it lands in the window at or
// above its exponent, and reports whether it did.
func (r *Regression) addWindow(k int, neg bool, hi, lo uint64, e int) bool {
	if hi|lo == 0 {
		return true
	}
	if r.spilled(k) {
		return false
	}
	w0, w1, w2 := r.w[k][0], r.w[k][1], r.w[k][2]
	if w0|w1|w2 == 0 {
		r.exp[k] = int16(e)
	}
	d := e - int(r.exp[k])
	if d < 0 || d+len128(hi, lo) > 64*winWords-2 {
		return false
	}
	t0, t1, t2 := shiftTerm(hi, lo, uint(d))
	var c uint64
	if neg {
		w0, c = bits.Sub64(w0, t0, 0)
		w1, c = bits.Sub64(w1, t1, c)
		w2, _ = bits.Sub64(w2, t2, c)
	} else {
		w0, c = bits.Add64(w0, t0, 0)
		w1, c = bits.Add64(w1, t1, c)
		w2, _ = bits.Add64(w2, t2, c)
	}
	if top := w2 >> 62; top != 0 && top != 3 {
		return false // lost a sign bit: the sum needs a wider integer
	}
	r.w[k] = window{w0, w1, w2}
	return true
}

// merge adds o's sum k to r's.
func (r *Regression) merge(k int, o *Regression) {
	switch {
	case !o.spilled(k) && o.w[k] == (window{}):
		return
	case !r.spilled(k) && r.w[k] == (window{}):
		r.exp[k] = o.exp[k]
		if !o.spilled(k) {
			r.w[k] = o.w[k]
			return
		}
		r.setBig(k, o.big[k])
		return
	case !r.spilled(k) && !o.spilled(k):
		a, b, exp := r.w[k], o.w[k], r.exp[k]
		fits := true
		switch d := int(r.exp[k]) - int(o.exp[k]); {
		case d > 0:
			if fits = headroom(a) >= d+2; fits {
				a, exp = shl(a, uint(d)), o.exp[k]
			}
		case d < 0:
			if fits = headroom(b) >= 2-d; fits {
				b = shl(b, uint(-d))
			}
		}
		if w := add(a, b); fits && inRange(w) {
			r.w[k], r.exp[k] = w, exp
			return
		}
	}
	t, e := o.bigValue(k), int(o.exp[k])
	r.spill(k)
	r.addBig(k, t, e)
}

// lower moves sum k's exponent down by d, when its value keeps the two
// sign bits.
func (r *Regression) lower(k, d int) bool {
	if headroom(r.w[k]) < d+2 {
		return false
	}
	r.w[k] = shl(r.w[k], uint(d))
	r.exp[k] -= int16(d)
	return true
}

// spill moves sum k from its window to big.
func (r *Regression) spill(k int) {
	if !r.spilled(k) {
		r.setBig(k, r.bigValue(k))
		r.w[k] = window{}
	}
}

// setBig replaces big[k], copying the array (copies of r may share it).
func (r *Regression) setBig(k int, b *big.Int) {
	var next [numSums]*big.Int
	if r.big != nil {
		next = *r.big
	}
	next[k] = b
	r.big = &next
}

// bigValue returns sum k's integer (the multiple of 2^exp[k]) as a big.Int.
func (r *Regression) bigValue(k int) *big.Int {
	if r.spilled(k) {
		return r.big[k]
	}
	w := r.w[k]
	neg := w[winWords-1]>>63 != 0
	if neg {
		w = negate(w)
	}
	b := new(big.Int)
	for i := winWords - 1; i >= 0; i-- {
		b.Lsh(b, 64).Or(b, new(big.Int).SetUint64(w[i]))
	}
	if neg {
		b.Neg(b)
	}
	return b
}

// addBig adds t·2^e to the spilled sum k, into a fresh big.Int.
func (r *Regression) addBig(k int, t *big.Int, e int) {
	cur := r.big[k]
	if d := e - int(r.exp[k]); d < 0 {
		cur = new(big.Int).Lsh(cur, uint(-d))
		r.exp[k] = int16(e)
	} else if d > 0 {
		t = new(big.Int).Lsh(t, uint(d))
	}
	r.setBig(k, new(big.Int).Add(cur, t))
}

// value rounds sum k to the nearest float64, ties to even.
func (r *Regression) value(k int) float64 {
	if r.spilled(k) {
		f := new(big.Float).SetInt(r.big[k])
		v, _ := f.SetMantExp(f, int(r.exp[k])).Float64()
		return v
	}
	w := r.w[k]
	neg := w[winWords-1]>>63 != 0
	if neg {
		w = negate(w)
	}
	top := 64*winWords - 1 - leadingZeros(w)
	if top < 0 {
		return 0
	}
	// Keep 53 significant bits, fewer where the result is subnormal.
	keep := int(r.exp[k]) + top - 52
	if keep < -1074 {
		keep = -1074
	}
	cut := keep - int(r.exp[k])
	var v float64
	if cut <= 0 {
		v = math.Ldexp(float64(w[0]), int(r.exp[k]))
	} else {
		b := shr(w, uint(cut-1))[0] // the kept bits and the round bit
		m := b >> 1
		if b&1 != 0 && (m&1 != 0 || lowBits(w, cut-1)) {
			m++
		}
		v = math.Ldexp(float64(m), keep)
	}
	if neg {
		v = -v
	}
	return v
}

// --- window arithmetic --------------------------------------------------

// shiftTerm returns the words of (hi·2⁶⁴ + lo)·2^d, which fits the window.
func shiftTerm(hi, lo uint64, d uint) (uint64, uint64, uint64) {
	switch {
	case d >= 128:
		return 0, 0, lo << (d - 128)
	case d >= 64:
		d -= 64
		return 0, lo << d, hi<<d | lo>>(64-d)
	}
	return lo << d, hi<<d | lo>>(64-d), hi >> (64 - d)
}

func len128(hi, lo uint64) int {
	if hi != 0 {
		return 64 + bits.Len64(hi)
	}
	return bits.Len64(lo)
}

func add(a, b window) window {
	var c uint64
	a[0], c = bits.Add64(a[0], b[0], 0)
	a[1], c = bits.Add64(a[1], b[1], c)
	a[2], _ = bits.Add64(a[2], b[2], c)
	return a
}

func negate(a window) window {
	var c uint64
	a[0], c = bits.Sub64(0, a[0], 0)
	a[1], c = bits.Sub64(0, a[1], c)
	a[2], _ = bits.Sub64(0, a[2], c)
	return a
}

// inRange reports whether a keeps two sign bits: -2¹⁹⁰ ≤ a < 2¹⁹⁰.
func inRange(a window) bool {
	t := a[winWords-1] >> 62
	return t == 0 || t == 3
}

// headroom is the number of leading bits equal to the sign bit.
func headroom(a window) int {
	if a[winWords-1]>>63 != 0 {
		for i := range a {
			a[i] = ^a[i]
		}
	}
	return leadingZeros(a)
}

func leadingZeros(a window) int {
	for i := winWords - 1; i >= 0; i-- {
		if a[i] != 0 {
			return 64*(winWords-1-i) + bits.LeadingZeros64(a[i])
		}
	}
	return 64 * winWords
}

// shl shifts a left by d bits (bits shifted past the window are lost).
func shl(a window, d uint) window {
	switch {
	case d >= 128:
		return window{0, 0, a[0] << (d - 128)}
	case d >= 64:
		d -= 64
		return window{0, a[0] << d, a[1]<<d | a[0]>>(64-d)}
	}
	return window{a[0] << d, a[1]<<d | a[0]>>(64-d), a[2]<<d | a[1]>>(64-d)}
}

// shr shifts the nonnegative a right by d bits.
func shr(a window, d uint) window {
	switch {
	case d >= 128:
		return window{a[2] >> (d - 128)}
	case d >= 64:
		d -= 64
		return window{a[1]>>d | a[2]<<(64-d), a[2] >> d}
	}
	return window{a[0]>>d | a[1]<<(64-d), a[1]>>d | a[2]<<(64-d), a[2] >> d}
}

// lowBits reports whether any of a's k lowest bits is set.
func lowBits(a window, k int) bool {
	for i := 0; i < winWords && k > 0; i++ {
		if k < 64 {
			return a[i]&(1<<uint(k)-1) != 0
		}
		if a[i] != 0 {
			return true
		}
		k -= 64
	}
	return false
}
