package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Test oracles and helpers: the checked entry to the interleaved solve
// kernels (SolveManyInto) and its one-vector forms, the LU routines the
// blocked and AVX2 kernels are checked against, and the small matrix
// helpers (products, sums, comparisons) the tests build and compare
// matrices with.

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

// SolveManyInto solves m X = B for k right-hand sides stored interleaved:
// element i of right-hand side c is b[i·k+c], and its solution lands in
// x[i·k+c]; y is forward-substitution scratch of the same shape. x, y and b
// must all have length n·k (x and y may not alias b).
//
// Right-hand sides go through one leaf kernel per row in blocks of four
// columns, then one at a time, so their independent subtraction chains
// overlap instead of each waiting on its own latency. Each right-hand side
// still sees exactly the floating-point operations of SolveCholesky in the
// same order: every column is bitwise identical to solving it alone.
func (f *CholFactor) SolveManyInto(x, y, b []float64, k int) error {
	n := f.n
	if k < 1 {
		return fmt.Errorf("linalg: %d right-hand sides, want at least 1", k)
	}
	if len(b) != n*k {
		return fmt.Errorf("linalg: rhs length %d, want %d×%d", len(b), n, k)
	}
	if len(x) != n*k || len(y) != n*k {
		return fmt.Errorf("linalg: solve buffers %d/%d, want %d×%d", len(x), len(y), n, k)
	}
	f.solveMany(x, y, b, k)
	return nil
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

// MulVec returns the matrix-vector product m * v.
func (m *Matrix) MulVec(v []float64) ([]float64, error) {
	out := make([]float64, m.Rows)
	if err := m.MulVecInto(out, v); err != nil {
		return nil, err
	}
	return out, nil
}

// MulVecInto computes m * v into dst without allocating. dst must have
// length m.Rows. The row dot products are unrolled but keep a single
// accumulator in index order, so results are bitwise identical to MulVec's
// historical loop.
func (m *Matrix) MulVecInto(dst, v []float64) error {
	if m.Cols != len(v) {
		return fmt.Errorf("linalg: cannot multiply %dx%d by vector of length %d", m.Rows, m.Cols, len(v))
	}
	if len(dst) != m.Rows {
		return fmt.Errorf("linalg: destination length %d, want %d", len(dst), m.Rows)
	}
	n := m.Cols
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*n : (i+1)*n]
		sum := 0.0
		j := 0
		for ; j+4 <= n; j += 4 {
			sum += row[j] * v[j]
			sum += row[j+1] * v[j+1]
			sum += row[j+2] * v[j+2]
			sum += row[j+3] * v[j+3]
		}
		for ; j < n; j++ {
			sum += row[j] * v[j]
		}
		dst[i] = sum
	}
	return nil
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
