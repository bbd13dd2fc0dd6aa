// Package linalg implements the dense float64 linear algebra needed by the
// side-channel template machinery (covariance estimation, multivariate
// Gaussian log-likelihoods) and the DBDD security estimator (covariance
// conditioning, log-determinants). It is deliberately small: row-major
// matrices, Gaussian elimination with partial pivoting, and Cholesky/LDL
// factorizations for symmetric positive (semi)definite systems.
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols
}

// NewMatrix allocates a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Transpose returns the transposed matrix.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Scale returns s*m.
func (m *Matrix) Scale(s float64) *Matrix {
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] *= s
	}
	return out
}

// mulBlock is the k-panel width of the blocked matrix product: B rows
// touched inside a panel stay cache-resident across the i sweep.
const mulBlock = 64

// Mul returns the matrix product m * other. The product is blocked over
// panels of k and unrolled over j; every output element still accumulates
// its k terms in ascending order, so results are bitwise identical to the
// naive i-k-j loop.
func (m *Matrix) Mul(other *Matrix) (*Matrix, error) {
	if m.Cols != other.Rows {
		return nil, fmt.Errorf("linalg: cannot multiply %dx%d by %dx%d", m.Rows, m.Cols, other.Rows, other.Cols)
	}
	out := NewMatrix(m.Rows, other.Cols)
	nc := other.Cols
	if nc == 0 || m.Rows == 0 {
		return out, nil
	}
	for k0 := 0; k0 < m.Cols; k0 += mulBlock {
		k1 := k0 + mulBlock
		if k1 > m.Cols {
			k1 = m.Cols
		}
		for i := 0; i < m.Rows; i++ {
			rowOut := out.Data[i*nc : (i+1)*nc]
			rowA := m.Data[i*m.Cols : (i+1)*m.Cols]
			for k := k0; k < k1; k++ {
				a := rowA[k]
				if a == 0 {
					// Skipping preserves the historical semantics: a zero
					// coefficient contributes nothing, even against ±Inf/NaN.
					continue
				}
				rowB := other.Data[k*nc : (k+1)*nc]
				j := 0
				for ; j+4 <= nc; j += 4 {
					rowOut[j] += a * rowB[j]
					rowOut[j+1] += a * rowB[j+1]
					rowOut[j+2] += a * rowB[j+2]
					rowOut[j+3] += a * rowB[j+3]
				}
				for ; j < nc; j++ {
					rowOut[j] += a * rowB[j]
				}
			}
		}
	}
	return out, nil
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	sum := 0.0
	for i := range a {
		sum += a[i] * b[i]
	}
	return sum
}

// IsSymmetric reports whether m is square and symmetric within tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}
