package lattice

import (
	"fmt"
	"math/big"
)

// DefaultDelta is the Lovász parameter used when callers pass 0.
const DefaultDelta = 0.99

// LLL reduces the basis in place with Lovász parameter delta ∈ (0.25, 1).
// The implementation is the textbook exact-rational algorithm: size
// reduction followed by the Lovász condition swap, with incremental GSO
// recomputation (simple, exact, fine for the ≤ ~50-dimensional residual
// instances this reproduction solves).
func LLL(b *Basis, delta float64) error {
	if delta == 0 {
		delta = DefaultDelta
	}
	if delta <= 0.25 || delta >= 1 {
		return fmt.Errorf("lattice: LLL delta %v out of (0.25, 1)", delta)
	}
	deltaRat := new(big.Rat).SetFloat64(delta)
	n := b.NumRows()
	if n <= 1 {
		return nil
	}

	mu, B, err := b.gso()
	if err != nil {
		return err
	}

	half := big.NewRat(1, 2)
	negHalf := big.NewRat(-1, 2)

	sizeReduce := func(i, j int) {
		if mu[i][j].Cmp(half) <= 0 && mu[i][j].Cmp(negHalf) >= 0 {
			return
		}
		q := roundRat(mu[i][j])
		b.subScaledRow(i, j, q)
		qr := new(big.Rat).SetInt(q)
		for k := 0; k < j; k++ {
			t := new(big.Rat).Mul(qr, mu[j][k])
			mu[i][k].Sub(mu[i][k], t)
		}
		mu[i][j].Sub(mu[i][j], qr)
	}

	k := 1
	for k < n {
		for j := k - 1; j >= 0; j-- {
			sizeReduce(k, j)
		}
		// Lovász: B[k] >= (delta - mu[k][k-1]^2) * B[k-1].
		lhs := new(big.Rat).Set(B[k])
		musq := new(big.Rat).Mul(mu[k][k-1], mu[k][k-1])
		rhs := new(big.Rat).Sub(deltaRat, musq)
		rhs.Mul(rhs, B[k-1])
		if lhs.Cmp(rhs) >= 0 {
			k++
			continue
		}
		b.swapRows(k, k-1)
		// Recompute GSO from scratch: exactness over speed.
		mu, B, err = b.gso()
		if err != nil {
			return err
		}
		if k > 1 {
			k--
		}
	}
	return nil
}

// roundRat rounds a rational to the nearest integer (half away from zero).
func roundRat(r *big.Rat) *big.Int {
	num := r.Num()
	den := r.Denom() // positive by construction
	q, rem := new(big.Int).QuoRem(num, den, new(big.Int))
	twoRem := new(big.Int).Abs(rem)
	twoRem.Lsh(twoRem, 1)
	if twoRem.Cmp(den) >= 0 {
		if num.Sign() >= 0 {
			q.Add(q, bigOne)
		} else {
			q.Sub(q, bigOne)
		}
	}
	return q
}

var bigOne = big.NewInt(1)
