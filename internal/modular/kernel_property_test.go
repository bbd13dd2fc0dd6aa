package modular

// Property tests for the reduction kernels the ring package's lazy NTT and
// pointwise product are built on: Barrett exactness at the classic boundary
// values and the lazy Shoup product's range/congruence contract, over
// random large primes.

import (
	"math/big"
	"math/rand"
	"testing"
)

// randomPrimes draws NTT-friendly primes of assorted widths up to the
// supported maximum (61 bits) via the same generator the ladder uses.
func randomPrimes(t *testing.T) []uint64 {
	t.Helper()
	var primes []uint64
	for _, bitSize := range []int{20, 31, 43, 54, MaxModulusBits} {
		ps, err := GeneratePrimes(bitSize, 2048, 2)
		if err != nil {
			t.Fatalf("GeneratePrimes(%d): %v", bitSize, err)
		}
		primes = append(primes, ps...)
	}
	return primes
}

// TestBarrettBoundaryExactness: MulMod must match math/big at boundary
// operand pairs (0, 1, 2, p-2, p-1).
func TestBarrettBoundaryExactness(t *testing.T) {
	for _, q := range randomPrimes(t) {
		br, err := NewBarrett(q)
		if err != nil {
			t.Fatalf("NewBarrett(%d): %v", q, err)
		}
		bq := new(big.Int).SetUint64(q)
		ops := []uint64{0, 1, 2, q - 2, q - 1}
		prod := new(big.Int)
		for _, a := range ops {
			for _, b := range ops {
				want := prod.Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b)).
					Mod(prod, bq).Uint64()
				if got := br.MulMod(a, b); got != want {
					t.Fatalf("q=%d: Barrett MulMod(%d, %d) = %d, want %d", q, a, b, got, want)
				}
			}
		}
	}
}

// TestMulShoupLazyContract: the lazy product must be congruent to a*b mod q
// and stay strictly below 2q for any multiplicand x (including the lazy
// NTT's up-to-4q operands), and one conditional subtraction must equal
// MulShoup exactly.
func TestMulShoupLazyContract(t *testing.T) {
	rng := rand.New(rand.NewSource(0x1A2))
	for _, q := range randomPrimes(t) {
		for iter := 0; iter < 200; iter++ {
			y := rng.Uint64() % q
			yPre := ShoupPrecon(y, q)
			// x ranges over the full lazy domain, not just [0, q).
			x := rng.Uint64()
			if iter%4 == 0 {
				x %= 4 * q
			}
			r := MulShoupLazy(x, y, yPre, q)
			if r >= 2*q {
				t.Fatalf("q=%d: MulShoupLazy(%d, %d) = %d ≥ 2q", q, x, y, r)
			}
			if r%q != Mul(x%q, y, q) {
				t.Fatalf("q=%d: MulShoupLazy(%d, %d) ≡ %d, want %d", q, x, y, r%q, Mul(x%q, y, q))
			}
			strict := r
			if strict >= q {
				strict -= q
			}
			if got := MulShoup(x, y, yPre, q); got != strict {
				t.Fatalf("q=%d: MulShoup(%d, %d) = %d, lazy+sub = %d", q, x, y, got, strict)
			}
		}
	}
}
