package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization or solve encounters a
// (numerically) singular matrix.
var ErrSingular = errors.New("linalg: matrix is singular")

// ErrNotPositiveDefinite is returned by Cholesky when the input is not
// symmetric positive definite.
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// Cholesky computes the lower-triangular L with m = L L^T. m must be
// symmetric positive definite.
func Cholesky(m *Matrix) (*Matrix, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("linalg: Cholesky needs square matrix, got %dx%d", m.Rows, m.Cols)
	}
	n := m.Rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		d := m.At(j, j)
		for k := 0; k < j; k++ {
			d -= l.At(j, k) * l.At(j, k)
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotPositiveDefinite
		}
		ljj := math.Sqrt(d)
		l.Set(j, j, ljj)
		for i := j + 1; i < n; i++ {
			s := m.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/ljj)
		}
	}
	return l, nil
}

// LogDetSPD returns log(det(m)) for a symmetric positive definite matrix
// via its Cholesky factor (numerically stable for tiny determinants).
func LogDetSPD(m *Matrix) (float64, error) {
	l, err := Cholesky(m)
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for i := 0; i < l.Rows; i++ {
		sum += math.Log(l.At(i, i))
	}
	return 2 * sum, nil
}

// SolveCholesky solves m x = b given the Cholesky factor L of m.
func SolveCholesky(l *Matrix, b []float64) ([]float64, error) {
	n := l.Rows
	if len(b) != n {
		return nil, fmt.Errorf("linalg: rhs length %d, want %d", len(b), n)
	}
	// Forward substitution L y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	// Back substitution L^T x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x, nil
}

// RegularizeSPD adds ridge*I to the diagonal of a covariance matrix in
// place and returns it; used to repair near-singular pooled covariances
// estimated from finite trace sets.
func RegularizeSPD(m *Matrix, ridge float64) *Matrix {
	for i := 0; i < m.Rows && i < m.Cols; i++ {
		m.Set(i, i, m.At(i, i)+ridge)
	}
	return m
}
