// Package lattice implements the lattice-reduction toolbox the attack's
// final stage uses to search the residual space the side-channel hints
// leave: exact Gram-Schmidt orthogonalization over the rationals, LLL
// reduction, Fincke-Pohst SVP enumeration, BKZ tours, Babai's nearest-plane
// algorithm, and the Kannan embedding for bounded-distance decoding. All
// arithmetic on basis vectors is exact (math/big); enumeration uses a
// float64 shadow of the GSO for speed.
package lattice

import (
	"fmt"
	"math/big"
)

// Basis is a list of row vectors generating a lattice. All rows must have
// equal length; rows may outnumber or undernumber the dimension as long as
// they stay linearly independent.
type Basis struct {
	rows [][]*big.Int
}

// NewBasisFromInt64 builds a basis from int64 rows.
func NewBasisFromInt64(rows [][]int64) (*Basis, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("lattice: empty basis")
	}
	n := len(rows[0])
	b := &Basis{rows: make([][]*big.Int, len(rows))}
	for i, r := range rows {
		if len(r) != n {
			return nil, fmt.Errorf("lattice: row %d has %d entries, want %d", i, len(r), n)
		}
		b.rows[i] = make([]*big.Int, n)
		for j, v := range r {
			b.rows[i][j] = big.NewInt(v)
		}
	}
	return b, nil
}

// NewBasisZero allocates a rows×cols all-zero basis.
func NewBasisZero(rows, cols int) *Basis {
	b := &Basis{rows: make([][]*big.Int, rows)}
	for i := range b.rows {
		b.rows[i] = make([]*big.Int, cols)
		for j := range b.rows[i] {
			b.rows[i][j] = new(big.Int)
		}
	}
	return b
}

// NumRows returns the number of basis vectors.
func (b *Basis) NumRows() int { return len(b.rows) }

// NumCols returns the ambient dimension.
func (b *Basis) NumCols() int {
	if len(b.rows) == 0 {
		return 0
	}
	return len(b.rows[0])
}

// At returns entry (i, j) (shared pointer; do not mutate).
func (b *Basis) At(i, j int) *big.Int { return b.rows[i][j] }

// Set assigns entry (i, j).
func (b *Basis) Set(i, j int, v *big.Int) { b.rows[i][j].Set(v) }

// SetInt64 assigns entry (i, j) from an int64.
func (b *Basis) SetInt64(i, j int, v int64) { b.rows[i][j].SetInt64(v) }

// Row returns a copy of row i.
func (b *Basis) Row(i int) []*big.Int {
	out := make([]*big.Int, len(b.rows[i]))
	for j, v := range b.rows[i] {
		out[j] = new(big.Int).Set(v)
	}
	return out
}

// Clone deep-copies the basis.
func (b *Basis) Clone() *Basis {
	c := &Basis{rows: make([][]*big.Int, len(b.rows))}
	for i, r := range b.rows {
		c.rows[i] = make([]*big.Int, len(r))
		for j, v := range r {
			c.rows[i][j] = new(big.Int).Set(v)
		}
	}
	return c
}

// swapRows exchanges rows i and j.
func (b *Basis) swapRows(i, j int) {
	b.rows[i], b.rows[j] = b.rows[j], b.rows[i]
}

// subScaledRow subtracts k·row[j] from row[i].
func (b *Basis) subScaledRow(i, j int, k *big.Int) {
	if k.Sign() == 0 {
		return
	}
	tmp := new(big.Int)
	for c := range b.rows[i] {
		tmp.Mul(k, b.rows[j][c])
		b.rows[i][c].Sub(b.rows[i][c], tmp)
	}
}

// NormSq returns the squared Euclidean norm of row i.
func (b *Basis) NormSq(i int) *big.Int {
	acc := new(big.Int)
	tmp := new(big.Int)
	for _, v := range b.rows[i] {
		tmp.Mul(v, v)
		acc.Add(acc, tmp)
	}
	return acc
}

// dotRows returns <row_i, row_j>.
func (b *Basis) dotRows(i, j int) *big.Int {
	acc := new(big.Int)
	tmp := new(big.Int)
	for c := range b.rows[i] {
		tmp.Mul(b.rows[i][c], b.rows[j][c])
		acc.Add(acc, tmp)
	}
	return acc
}

// gso computes the exact Gram-Schmidt data: mu[i][j] for j<i and the
// squared norms B[i] of the orthogonalized vectors, as rationals.
func (b *Basis) gso() (mu [][]*big.Rat, B []*big.Rat, err error) {
	n := b.NumRows()
	mu = make([][]*big.Rat, n)
	B = make([]*big.Rat, n)
	// r[i][j] = <b_i, b*_j> as rationals, computed incrementally.
	r := make([][]*big.Rat, n)
	for i := 0; i < n; i++ {
		mu[i] = make([]*big.Rat, i)
		r[i] = make([]*big.Rat, i+1)
		for j := 0; j <= i; j++ {
			// <b_i, b*_j> = <b_i, b_j> - sum_{k<j} mu[j][k] * r[i][k]
			dot := new(big.Rat).SetInt(b.dotRows(i, j))
			for k := 0; k < j; k++ {
				t := new(big.Rat).Mul(mu[j][k], r[i][k])
				dot.Sub(dot, t)
			}
			r[i][j] = dot
			if j < i {
				mu[i][j] = new(big.Rat).Quo(dot, B[j])
			} else {
				B[i] = dot
			}
		}
		if B[i].Sign() <= 0 {
			return nil, nil, fmt.Errorf("lattice: linearly dependent basis at row %d", i)
		}
	}
	return mu, B, nil
}
