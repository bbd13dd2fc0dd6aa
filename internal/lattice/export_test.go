package lattice

import (
	"fmt"
	"math/big"
)

// Oracles the tests check LLL and BKZ output with: the reducedness
// conditions, the lattice volume, and vector norms and dot products.

// IsLLLReduced verifies the size-reduction and Lovász conditions, the
// property tests' oracle.
func IsLLLReduced(b *Basis, delta float64) (bool, error) {
	if delta == 0 {
		delta = DefaultDelta
	}
	mu, B, err := b.gso()
	if err != nil {
		return false, err
	}
	half := big.NewRat(1, 2)
	negHalf := big.NewRat(-1, 2)
	// Allow a hair of slack on the strict 1/2 bound (rounding ties).
	slack := big.NewRat(1, 1000000)
	hiBound := new(big.Rat).Add(half, slack)
	loBound := new(big.Rat).Sub(negHalf, slack)
	for i := 1; i < b.NumRows(); i++ {
		for j := 0; j < i; j++ {
			if mu[i][j].Cmp(hiBound) > 0 || mu[i][j].Cmp(loBound) < 0 {
				return false, nil
			}
		}
	}
	deltaRat := new(big.Rat).SetFloat64(delta)
	for k := 1; k < b.NumRows(); k++ {
		musq := new(big.Rat).Mul(mu[k][k-1], mu[k][k-1])
		rhs := new(big.Rat).Sub(deltaRat, musq)
		rhs.Mul(rhs, B[k-1])
		if B[k].Cmp(rhs) < 0 {
			return false, nil
		}
	}
	return true, nil
}

// VolumeSq returns the squared volume (Gram determinant) of the lattice as
// an exact rational: prod_i B[i].
func (b *Basis) VolumeSq() (*big.Rat, error) {
	_, B, err := b.gso()
	if err != nil {
		return nil, err
	}
	out := big.NewRat(1, 1)
	for _, v := range B {
		out.Mul(out, v)
	}
	return out, nil
}

// NormSqVec returns the squared norm of a vector.
func NormSqVec(v []*big.Int) *big.Int {
	acc := new(big.Int)
	tmp := new(big.Int)
	for _, x := range v {
		tmp.Mul(x, x)
		acc.Add(acc, tmp)
	}
	return acc
}

// DotVec returns <row_i, v> for an external vector.
func (b *Basis) DotVec(i int, v []*big.Int) (*big.Int, error) {
	if len(v) != b.NumCols() {
		return nil, fmt.Errorf("lattice: vector length %d, want %d", len(v), b.NumCols())
	}
	acc := new(big.Int)
	tmp := new(big.Int)
	for c := range v {
		tmp.Mul(b.rows[i][c], v[c])
		acc.Add(acc, tmp)
	}
	return acc, nil
}
