// Package modular provides 64-bit modular arithmetic primitives used by the
// polynomial ring and BFV layers: addition, subtraction, multiplication via
// 128-bit intermediates, Barrett reduction, exponentiation, inversion,
// primality testing, and primitive root finding for NTT-friendly primes.
//
// All moduli are required to be in (1, 2^62) so that sums of two reduced
// operands never overflow a uint64. This matches Microsoft SEAL's
// SmallModulus constraint (at most 61 bits).
package modular

import (
	"fmt"
	"math/bits"
)

// MaxModulusBits is the largest supported modulus width in bits.
const MaxModulusBits = 61

// Add returns (a + b) mod q. Both operands must already be reduced mod q.
func Add(a, b, q uint64) uint64 {
	s := a + b
	if s >= q {
		s -= q
	}
	return s
}

// Sub returns (a - b) mod q. Both operands must already be reduced mod q.
func Sub(a, b, q uint64) uint64 {
	if a >= b {
		return a - b
	}
	return a + q - b
}

// Neg returns (-a) mod q for a already reduced mod q.
func Neg(a, q uint64) uint64 {
	if a == 0 {
		return 0
	}
	return q - a
}

// Mul returns (a * b) mod q using a 128-bit intermediate product.
func Mul(a, b, q uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, rem := bits.Div64(hi%q, lo, q)
	return rem
}

// Exp returns a^e mod q by square-and-multiply.
func Exp(a, e, q uint64) uint64 {
	if q == 1 {
		return 0
	}
	result := uint64(1)
	base := a % q
	for e > 0 {
		if e&1 == 1 {
			result = Mul(result, base, q)
		}
		base = Mul(base, base, q)
		e >>= 1
	}
	return result
}

// Inverse returns a^-1 mod q and reports whether the inverse exists
// (i.e. gcd(a, q) == 1). It uses the extended Euclidean algorithm.
func Inverse(a, q uint64) (uint64, bool) {
	if q == 0 {
		return 0, false
	}
	a %= q
	if a == 0 {
		return 0, false
	}
	// Extended Euclid on (a, q) tracking only the coefficient of a.
	// Signed arithmetic is safe: coefficients are bounded by q < 2^62.
	var t0, t1 int64 = 0, 1
	r0, r1 := q, a
	for r1 != 0 {
		quot := r0 / r1
		r0, r1 = r1, r0-quot*r1
		t0, t1 = t1, t0-int64(quot)*t1
	}
	if r0 != 1 {
		return 0, false
	}
	if t0 < 0 {
		t0 += int64(q)
	}
	return uint64(t0), true
}

// ValidateModulus reports an error when q is unusable as a coefficient
// modulus (zero, one, or wider than MaxModulusBits bits).
func ValidateModulus(q uint64) error {
	if q <= 1 {
		return fmt.Errorf("modular: modulus %d must be greater than 1", q)
	}
	if bits.Len64(q) > MaxModulusBits {
		return fmt.Errorf("modular: modulus %d exceeds %d bits", q, MaxModulusBits)
	}
	return nil
}

// Barrett holds precomputed state for Barrett reduction modulo a fixed q.
// It computes x mod q for x < 2^64 without a hardware divide on the hot
// path, the same trick SEAL uses for its SmallModulus type.
type Barrett struct {
	q     uint64
	ratio [2]uint64 // floor(2^128 / q), low and high words
}

// NewBarrett precomputes the Barrett constant for q. q must satisfy
// ValidateModulus.
func NewBarrett(q uint64) (Barrett, error) {
	if err := ValidateModulus(q); err != nil {
		return Barrett{}, err
	}
	// Compute floor(2^128 / q) as a 128-bit value (hi, lo).
	// First floor(2^128 / q) = (2^64 / q) * 2^64 + floor((2^64 mod q)*2^64 / q).
	hiQuot, hiRem := bits.Div64(1, 0, q) // 2^64 = hiQuot*q + hiRem
	loQuot, _ := bits.Div64(hiRem, 0, q)
	return Barrett{q: q, ratio: [2]uint64{loQuot, hiQuot}}, nil
}

// MulMod returns (x*y) mod q using 128-bit multiply followed by a
// 128-bit Barrett reduction.
func (b Barrett) MulMod(x, y uint64) uint64 {
	hi, lo := bits.Mul64(x, y)
	return b.reduce128(hi, lo)
}

// reduce128 reduces the 128-bit value (hi, lo) modulo q.
func (b Barrett) reduce128(hi, lo uint64) uint64 {
	// quot = floor(((hi*2^64 + lo) * ratio) / 2^128) where ratio is 128-bit.
	// Expand the 256-bit product and keep the top 128 bits.
	// x = hi*2^64 + lo, r = r1*2^64 + r0.
	r0, r1 := b.ratio[0], b.ratio[1]

	// lo*r0 contributes its high word at position 2^64.
	h00, _ := bits.Mul64(lo, r0)
	// lo*r1 and hi*r0 contribute at 2^64 (low) and 2^128 (high).
	h01, l01 := bits.Mul64(lo, r1)
	h10, l10 := bits.Mul64(hi, r0)
	// hi*r1 contributes at 2^128 (low word) and 2^192 (high word).
	h11, l11 := bits.Mul64(hi, r1)

	// Sum the 2^64 column.
	mid, c1 := bits.Add64(h00, l01, 0)
	_, c2 := bits.Add64(mid, l10, 0)
	carryTo128 := c1 + c2

	// Sum the 2^128 column (this is the low word of the quotient).
	q0, c3 := bits.Add64(h01, h10, 0)
	q0, c4 := bits.Add64(q0, l11, 0)
	q0, c5 := bits.Add64(q0, carryTo128, 0)
	_ = h11 + c3 + c4 + c5 // 2^192 column, unused: quotient < 2^128 needed only mod 2^64 below

	// The true quotient fits in 128 bits; the remainder computation only
	// needs quot mod 2^64 since x < 2^128 and q < 2^62.
	r := lo - q0*b.q
	for r >= b.q {
		r -= b.q
	}
	return r
}

// MulShoup returns (x*y) mod q where yPrecon = floor(y * 2^64 / q) has been
// precomputed (Shoup multiplication). This is the hot-path primitive in the
// NTT butterfly. y must be reduced mod q.
func MulShoup(x, y, yPrecon, q uint64) uint64 {
	hi, _ := bits.Mul64(x, yPrecon)
	r := x*y - hi*q
	if r >= q {
		r -= q
	}
	return r
}

// MulShoupLazy is MulShoup without the final conditional subtraction: the
// result is only guaranteed to lie in [0, 2q), congruent to x*y mod q. It
// is the butterfly primitive of the lazy-reduction NTT, where operands are
// themselves allowed to drift up to 4q before being brought back down.
// y must be reduced mod q; x may be any uint64.
func MulShoupLazy(x, y, yPrecon, q uint64) uint64 {
	hi, _ := bits.Mul64(x, yPrecon)
	return x*y - hi*q
}

// ShoupPrecon returns floor(y * 2^64 / q) for use with MulShoup.
func ShoupPrecon(y, q uint64) uint64 {
	quot, _ := bits.Div64(y, 0, q)
	return quot
}
