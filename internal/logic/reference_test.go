package logic

// Bit-vector operations no IP model or flow stage uses: xor and and,
// modular add, sub and multiply, the logical right shift, rotation,
// slicing, concatenation and the population count. They are kept with
// their tests; TestShifts checks the live Shl against Shr, and
// TestNewZeroValued and TestWidthMismatchPanics reach New and the width
// check through them.

import (
	"fmt"
	"math/bits"
)

// Xor returns x ^ y. Both operands must have the same width.
func (x Vector) Xor(y Vector) Vector {
	x.sameWidth(y)
	z := x.Clone()
	for i := range z.words {
		z.words[i] ^= y.words[i]
	}
	return z
}

// And returns x & y. Both operands must have the same width.
func (x Vector) And(y Vector) Vector {
	x.sameWidth(y)
	z := x.Clone()
	for i := range z.words {
		z.words[i] &= y.words[i]
	}
	return z
}

// Add returns x + y modulo 2^width. Both operands must have the same width.
func (x Vector) Add(y Vector) Vector {
	x.sameWidth(y)
	z := x.Clone()
	var carry uint64
	for i := range z.words {
		s, c1 := bits.Add64(z.words[i], y.words[i], carry)
		z.words[i] = s
		carry = c1
	}
	z.mask()
	return z
}

// Sub returns x - y modulo 2^width. Both operands must have the same width.
func (x Vector) Sub(y Vector) Vector {
	x.sameWidth(y)
	z := x.Clone()
	var borrow uint64
	for i := range z.words {
		d, b1 := bits.Sub64(z.words[i], y.words[i], borrow)
		z.words[i] = d
		borrow = b1
	}
	z.mask()
	return z
}

// MulUint64 returns x * k modulo 2^width.
func (x Vector) MulUint64(k uint64) Vector {
	z := New(x.width)
	var carry uint64
	for i := range x.words {
		hi, lo := bits.Mul64(x.words[i], k)
		s, c := bits.Add64(lo, carry, 0)
		z.words[i] = s
		carry = hi + c
	}
	z.mask()
	return z
}

// Shr returns x >> n (logical shift).
func (x Vector) Shr(n int) Vector {
	if n < 0 {
		panic("logic: negative shift")
	}
	z := New(x.width)
	wordShift, bitShift := n/wordBits, uint(n%wordBits)
	for i := 0; i+wordShift < len(x.words); i++ {
		z.words[i] = x.words[i+wordShift] >> bitShift
		if bitShift > 0 && i+wordShift+1 < len(x.words) {
			z.words[i] |= x.words[i+wordShift+1] << (wordBits - bitShift)
		}
	}
	return z
}

// RotL returns x rotated left by n bits within its width.
func (x Vector) RotL(n int) Vector {
	if x.width == 0 {
		return x.Clone()
	}
	n %= x.width
	if n < 0 {
		n += x.width
	}
	return x.Shl(n).Or(x.Shr(x.width - n))
}

// Slice returns bits [lo, hi] of x (inclusive, hi >= lo) as a new Vector of
// width hi-lo+1.
func (x Vector) Slice(hi, lo int) Vector {
	if lo < 0 || hi >= x.width || hi < lo {
		panic(fmt.Sprintf("logic: bad slice [%d,%d] of width %d", hi, lo, x.width))
	}
	shifted := x.Shr(lo)
	z := New(hi - lo + 1)
	copy(z.words, shifted.words)
	z.mask()
	return z
}

// Concat returns the concatenation {x, y}: x occupies the high bits and y
// the low bits of the result, whose width is x.Width()+y.Width().
func (x Vector) Concat(y Vector) Vector {
	z := New(x.width + y.width)
	copy(z.words, y.words)
	xs := Vector{width: z.width, words: make([]uint64, len(z.words))}
	copy(xs.words, x.words)
	xs = xs.Shl(y.width)
	return z.Or(xs)
}

// OnesCount returns the number of set bits in x.
func (x Vector) OnesCount() int {
	n := 0
	for _, w := range x.words {
		n += bits.OnesCount64(w)
	}
	return n
}
