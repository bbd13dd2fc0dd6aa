package modular

import (
	"fmt"
)

// IsPrime reports whether n is prime using a deterministic Miller-Rabin
// test with a witness set proven exhaustive for all n < 2^64.
func IsPrime(n uint64) bool {
	if n < 2 {
		return false
	}
	for _, p := range []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} {
		if n == p {
			return true
		}
		if n%p == 0 {
			return false
		}
	}
	// Write n-1 as d * 2^s.
	d := n - 1
	s := uint(0)
	for d&1 == 0 {
		d >>= 1
		s++
	}
	// This witness set is deterministic for n < 2^64 (Sorenson & Webster).
	for _, a := range []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} {
		x := Exp(a%n, d, n)
		if x == 1 || x == n-1 {
			continue
		}
		composite := true
		for r := uint(1); r < s; r++ {
			x = Mul(x, x, n)
			if x == n-1 {
				composite = false
				break
			}
		}
		if composite {
			return false
		}
	}
	return true
}

// GeneratePrimes returns count primes of exactly bitSize bits that are
// congruent to 1 modulo m (so that an m-th root of unity exists mod each
// prime). Primes are returned in decreasing order starting just below
// 2^bitSize. This mirrors SEAL's CoeffModulus::Create.
func GeneratePrimes(bitSize int, m uint64, count int) ([]uint64, error) {
	if bitSize < 2 || bitSize > MaxModulusBits {
		return nil, fmt.Errorf("modular: prime bit size %d out of range [2,%d]", bitSize, MaxModulusBits)
	}
	if m == 0 {
		return nil, fmt.Errorf("modular: congruence modulus must be nonzero")
	}
	if count <= 0 {
		return nil, fmt.Errorf("modular: prime count %d must be positive", count)
	}
	primes := make([]uint64, 0, count)
	upper := uint64(1) << uint(bitSize)
	// Largest candidate below 2^bitSize congruent to 1 mod m.
	candidate := upper - 1
	candidate -= (candidate - 1) % m // now candidate ≡ 1 (mod m)
	for candidate >= (uint64(1)<<uint(bitSize-1)) && len(primes) < count {
		if IsPrime(candidate) {
			primes = append(primes, candidate)
		}
		if candidate < m {
			break
		}
		candidate -= m
	}
	if len(primes) < count {
		return nil, fmt.Errorf("modular: found only %d of %d primes with %d bits ≡ 1 mod %d",
			len(primes), count, bitSize, m)
	}
	return primes, nil
}

// PrimitiveRoot returns a generator of the multiplicative group mod prime q.
// q must be prime; the function factors q-1 by trial division (fine for the
// ≤61-bit NTT primes used here).
func PrimitiveRoot(q uint64) (uint64, error) {
	if !IsPrime(q) {
		return 0, fmt.Errorf("modular: %d is not prime", q)
	}
	if q == 2 {
		return 1, nil
	}
	factors := distinctPrimeFactors(q - 1)
	for g := uint64(2); g < q; g++ {
		ok := true
		for _, f := range factors {
			if Exp(g, (q-1)/f, q) == 1 {
				ok = false
				break
			}
		}
		if ok {
			return g, nil
		}
	}
	return 0, fmt.Errorf("modular: no primitive root found for %d", q)
}

// MinimalPrimitiveNthRoot returns the smallest primitive n-th root of unity
// modulo prime q. n must be a power of two dividing q-1.
func MinimalPrimitiveNthRoot(n, q uint64) (uint64, error) {
	if n == 0 || n&(n-1) != 0 {
		return 0, fmt.Errorf("modular: n=%d must be a power of two", n)
	}
	if (q-1)%n != 0 {
		return 0, fmt.Errorf("modular: %d does not divide %d-1", n, q)
	}
	g, err := PrimitiveRoot(q)
	if err != nil {
		return 0, err
	}
	root := Exp(g, (q-1)/n, q)
	// Scan the n/2 odd powers (all primitive n-th roots) for the minimum.
	min := root
	cur := root
	sq := Mul(root, root, q)
	for i := uint64(1); i < n/2; i++ {
		cur = Mul(cur, sq, q)
		if cur < min {
			min = cur
		}
	}
	if Exp(min, n, q) != 1 || (n > 1 && Exp(min, n/2, q) == 1) {
		return 0, fmt.Errorf("modular: internal error: %d is not a primitive %d-th root mod %d", min, n, q)
	}
	return min, nil
}

// distinctPrimeFactors returns the distinct prime factors of n by trial
// division.
func distinctPrimeFactors(n uint64) []uint64 {
	var factors []uint64
	for _, p := range []uint64{2, 3, 5} {
		if n%p == 0 {
			factors = append(factors, p)
			for n%p == 0 {
				n /= p
			}
		}
	}
	// Wheel over 6k±1.
	for f := uint64(7); f*f <= n; {
		for _, step := range []uint64{0, 4} { // f, f+4 covers 6k+1, 6k+5
			cand := f + step
			if cand*cand > n {
				break
			}
			if n%cand == 0 {
				factors = append(factors, cand)
				for n%cand == 0 {
					n /= cand
				}
			}
		}
		f += 6
	}
	if n > 1 {
		factors = append(factors, n)
	}
	return factors
}

// CenteredRep maps a residue x mod q to its centered representative in
// (-q/2, q/2].
func CenteredRep(x, q uint64) int64 {
	if x > q/2 {
		return int64(x) - int64(q)
	}
	return int64(x)
}

// FromCentered maps a signed value v with |v| < q into its residue mod q.
func FromCentered(v int64, q uint64) uint64 {
	if v >= 0 {
		return uint64(v) % q
	}
	neg := uint64(-v) % q
	return Neg(neg, q)
}
