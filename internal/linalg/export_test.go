package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Test oracles and helpers: the one-vector Cholesky solves and the LU
// routines the blocked and AVX2 kernels are checked against, and the small
// matrix helpers the tests build and compare matrices with.

// NewCholFactor factors m (symmetric positive definite) and prepares the
// cached solve structures.
func NewCholFactor(m *Matrix) (*CholFactor, error) {
	l, err := Cholesky(m)
	if err != nil {
		return nil, err
	}
	return CholFactorOf(l), nil
}

// Lower returns a copy of the lower-triangular factor as a Matrix.
func (f *CholFactor) Lower() *Matrix {
	m := NewMatrix(f.n, f.n)
	copy(m.Data, f.lower)
	return m
}

// SolveInto solves m x = b into caller-owned buffers: x receives the
// solution, y is forward-substitution scratch. x, y and b must all have
// length n (x and y may not alias b). It is SolveManyInto with one
// right-hand side: no allocation, and the arithmetic matches SolveCholesky
// operation for operation.
func (f *CholFactor) SolveInto(x, y, b []float64) error {
	return f.SolveManyInto(x, y, b, 1)
}

// Solve solves m x = b, allocating fresh buffers.
func (f *CholFactor) Solve(b []float64) ([]float64, error) {
	x := make([]float64, f.n)
	y := make([]float64, f.n)
	if err := f.SolveInto(x, y, b); err != nil {
		return nil, err
	}
	return x, nil
}

// LU holds an LU factorization with partial pivoting: P m = L U.
type LU struct {
	lu    *Matrix
	pivot []int
	sign  float64
}

// NewLU factors m (square) with partial pivoting.
func NewLU(m *Matrix) (*LU, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("linalg: LU needs square matrix, got %dx%d", m.Rows, m.Cols)
	}
	n := m.Rows
	lu := m.Clone()
	pivot := make([]int, n)
	sign := 1.0
	for i := range pivot {
		pivot[i] = i
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		p, maxAbs := col, math.Abs(lu.At(col, col))
		for r := col + 1; r < n; r++ {
			if a := math.Abs(lu.At(r, col)); a > maxAbs {
				p, maxAbs = r, a
			}
		}
		if maxAbs == 0 {
			return nil, ErrSingular
		}
		if p != col {
			for j := 0; j < n; j++ {
				lu.Data[p*n+j], lu.Data[col*n+j] = lu.Data[col*n+j], lu.Data[p*n+j]
			}
			pivot[p], pivot[col] = pivot[col], pivot[p]
			sign = -sign
		}
		inv := 1.0 / lu.At(col, col)
		for r := col + 1; r < n; r++ {
			f := lu.At(r, col) * inv
			lu.Set(r, col, f)
			if f == 0 {
				continue
			}
			for j := col + 1; j < n; j++ {
				lu.Set(r, j, lu.At(r, j)-f*lu.At(col, j))
			}
		}
	}
	return &LU{lu: lu, pivot: pivot, sign: sign}, nil
}

// Solve solves m x = b using the factorization.
func (f *LU) Solve(b []float64) ([]float64, error) {
	n := f.lu.Rows
	if len(b) != n {
		return nil, fmt.Errorf("linalg: rhs length %d, want %d", len(b), n)
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.pivot[i]]
	}
	// Forward: L y = Pb (unit diagonal).
	for i := 0; i < n; i++ {
		for k := 0; k < i; k++ {
			x[i] -= f.lu.At(i, k) * x[k]
		}
	}
	// Back: U x = y.
	for i := n - 1; i >= 0; i-- {
		for k := i + 1; k < n; k++ {
			x[i] -= f.lu.At(i, k) * x[k]
		}
		x[i] /= f.lu.At(i, i)
	}
	return x, nil
}

// Det returns the determinant from the factorization.
func (f *LU) Det() float64 {
	d := f.sign
	for i := 0; i < f.lu.Rows; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// Inverse returns m^-1 via LU factorization.
func Inverse(m *Matrix) (*Matrix, error) {
	f, err := NewLU(m)
	if err != nil {
		return nil, err
	}
	n := m.Rows
	inv := NewMatrix(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col, err := f.Solve(e)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			inv.Set(i, j, col[i])
		}
	}
	return inv, nil
}

// Solve solves m x = b directly.
func Solve(m *Matrix, b []float64) ([]float64, error) {
	f, err := NewLU(m)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// Det returns det(m).
func Det(m *Matrix) (float64, error) {
	f, err := NewLU(m)
	if err != nil {
		if errors.Is(err, ErrSingular) {
			return 0, nil
		}
		return 0, err
	}
	return f.Det(), nil
}

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	out := make([]float64, m.Cols)
	copy(out, m.Data[i*m.Cols:(i+1)*m.Cols])
	return out
}

// Add returns m + other.
func (m *Matrix) Add(other *Matrix) (*Matrix, error) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return nil, fmt.Errorf("linalg: shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, other.Rows, other.Cols)
	}
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] += other.Data[i]
	}
	return out, nil
}

// Sub returns m - other.
func (m *Matrix) Sub(other *Matrix) (*Matrix, error) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return nil, fmt.Errorf("linalg: shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, other.Rows, other.Cols)
	}
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] -= other.Data[i]
	}
	return out, nil
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return NewMatrix(0, 0), nil
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("linalg: row %d has %d entries, want %d", i, len(r), cols)
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	return math.Sqrt(Dot(v, v))
}

// OuterProduct returns the matrix a b^T.
func OuterProduct(a, b []float64) *Matrix {
	m := NewMatrix(len(a), len(b))
	for i, ai := range a {
		for j, bj := range b {
			m.Set(i, j, ai*bj)
		}
	}
	return m
}

// MaxAbsDiff returns the largest absolute element-wise difference between
// two matrices of the same shape, or +Inf on shape mismatch.
func MaxAbsDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return math.Inf(1)
	}
	max := 0.0
	for i := range a.Data {
		d := math.Abs(a.Data[i] - b.Data[i])
		if d > max {
			max = d
		}
	}
	return max
}
