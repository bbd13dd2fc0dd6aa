package linalg

import (
	"fmt"
	"math"
)

// CholFactor is a cached Cholesky factorization of a symmetric positive
// definite matrix, prepared once and reused across many solves — the shape
// of the template-attack hot path, where one pooled covariance is solved
// against every classified sub-trace. Besides the lower factor L it keeps a
// row-major copy of L^T (so back substitution walks memory sequentially
// instead of striding down a column), the diagonal, and the log-determinant.
//
// Every solve performs exactly the floating-point operations of
// SolveCholesky in the same order, so results are bitwise identical to a
// fresh factor-and-solve; the caching is purely a throughput optimization.
type CholFactor struct {
	n      int
	lower  []float64 // row-major n×n lower-triangular factor L
	upper  []float64 // row-major n×n L^T: row i holds column i of L
	diag   []float64
	logDet float64
}

// CholFactorOf wraps an existing lower-triangular Cholesky factor (as
// produced by Cholesky) without re-factoring.
func CholFactorOf(l *Matrix) *CholFactor {
	n := l.Rows
	f := &CholFactor{
		n:     n,
		lower: append([]float64(nil), l.Data...),
		upper: make([]float64, n*n),
		diag:  make([]float64, n),
	}
	for i := 0; i < n; i++ {
		f.diag[i] = l.Data[i*n+i]
		f.logDet += 2 * math.Log(f.diag[i])
		for k := 0; k <= i; k++ {
			f.upper[k*n+i] = l.Data[i*n+k]
		}
	}
	return f
}

// LogDet returns log(det(m)) of the factored matrix.
func (f *CholFactor) LogDet() float64 { return f.logDet }

// BlockLanes is the width of one QuadBlockInto call: sixteen quadratic
// forms in four groups of four lanes.
const BlockLanes = 16

// BlockWork returns the scratch length QuadBlockInto needs on this CPU:
// one n×16 block for the AVX2 kernel, three for the Go twin.
func (f *CholFactor) BlockWork() int {
	if useAVX2 {
		return f.n * BlockLanes
	}
	return 3 * f.n * BlockLanes
}

// QuadBlockInto computes sixteen quadratic forms against the factored
// matrix m in one call. Lane j belongs to group g = j/4, which reads the
// feature vector feat[g·fstride : g·fstride+n]; its residual is
// r_j[i] = feat[g·fstride+i] − means[i·16+j], and q[j] = r_jᵀ m⁻¹ r_j. With
// fstride 0 all sixteen lanes read one vector; with fstride n, four
// consecutive vectors feed four lanes each. means holds n rows of sixteen
// lanes; work is scratch of at least BlockWork() entries.
//
// Every lane performs the floating-point operations of its own residual
// loop, SolveCholesky and Dot in the same order, so each q[j] is bitwise
// identical to solving that lane alone. On CPUs with AVX2 one assembly call
// runs the residual, both substitutions and the sums with one lane per
// column; elsewhere the Go twin (residual loop, the SolveManyInto kernels,
// column sums) does. It allocates nothing.
func (f *CholFactor) QuadBlockInto(q, feat []float64, fstride int, means, work []float64) error {
	n := f.n
	if len(q) != BlockLanes {
		return fmt.Errorf("linalg: %d block quadratic forms, want %d", len(q), BlockLanes)
	}
	if fstride < 0 || len(feat) < 3*fstride+n {
		return fmt.Errorf("linalg: %d features at stride %d, want 4 groups of %d", len(feat), fstride, n)
	}
	if len(means) != n*BlockLanes || len(work) < f.BlockWork() {
		return fmt.Errorf("linalg: block means/work %d/%d, want %d/%d", len(means), len(work), n*BlockLanes, f.BlockWork())
	}
	f.quadBlock(q, feat, fstride, means, work, useAVX2)
	return nil
}

// quadBlock is QuadBlockInto on checked buffers. With simd one AVX2 call
// computes the whole block in work's first n×16 entries; otherwise the Go
// twin does, in three n×16 blocks. Tests call it with both values to
// compare every kernel the CPU can run.
func (f *CholFactor) quadBlock(q, feat []float64, fstride int, means, work []float64, simd bool) {
	n := f.n
	if n == 0 {
		clear(q)
		return
	}
	if simd {
		quadBlock16(q, feat, fstride, means, f.lower, f.upper, f.diag, work)
		return
	}
	m := n * BlockLanes
	r, y, x := work[:m], work[m:2*m], work[2*m:3*m]
	for i := 0; i < n; i++ {
		for j := 0; j < BlockLanes; j++ {
			r[i*BlockLanes+j] = feat[j/4*fstride+i] - means[i*BlockLanes+j]
		}
	}
	f.solveMany(x, y, r, BlockLanes)
	columnDots(q, r, x, BlockLanes)
}

// solveMany is SolveManyInto on checked buffers: blocks of four columns
// through sub4, then the rest one at a time through sub1.
func (f *CholFactor) solveMany(x, y, b []float64, k int) {
	n := f.n
	c := 0
	for ; c+4 <= k; c += 4 {
		// Forward substitution L y = b.
		for i := 0; i < n; i++ {
			o := i*k + c
			s0, s1, s2, s3 := sub4(f.lower[i*n:i*n+i], y[c:], k, b[o], b[o+1], b[o+2], b[o+3])
			d := f.diag[i]
			y[o], y[o+1], y[o+2], y[o+3] = s0/d, s1/d, s2/d, s3/d
		}
		// Back substitution L^T x = y, reading L^T rows sequentially. Row
		// i's terms start at x row i+1 (the last row has none: min keeps
		// the empty view in range).
		for i := n - 1; i >= 0; i-- {
			o := i*k + c
			s0, s1, s2, s3 := sub4(f.upper[i*n+i+1:(i+1)*n], x[min(o+k, len(x)):], k, y[o], y[o+1], y[o+2], y[o+3])
			d := f.diag[i]
			x[o], x[o+1], x[o+2], x[o+3] = s0/d, s1/d, s2/d, s3/d
		}
	}
	for ; c < k; c++ {
		for i := 0; i < n; i++ {
			o := i*k + c
			y[o] = sub1(f.lower[i*n:i*n+i], y[c:], k, b[o]) / f.diag[i]
		}
		for i := n - 1; i >= 0; i-- {
			o := i*k + c
			x[o] = sub1(f.upper[i*n+i+1:(i+1)*n], x[min(o+k, len(x)):], k, y[o]) / f.diag[i]
		}
	}
}

// columnDots sets q[c] = Σ_i r[i·k+c]·x[i·k+c] for c < len(q), i ascending
// from +0.
func columnDots(q, r, x []float64, k int) {
	for c := range q {
		sum := 0.0
		for i := c; i < len(r); i += k {
			sum += r[i] * x[i]
		}
		q[c] = sum
	}
}

// sub4 returns s_j − Σ_t row[t]·v[t·stride+j] for j = 0..3, subtracting
// term by term in ascending t. It stays a separate, non-inlined leaf: in
// its own frame the compiler keeps the four accumulators and the loop state
// in registers, while inlined into the solve it spilled the loop counter
// and lost most of the overlap.
//
//go:noinline
func sub4(row, v []float64, stride int, s0, s1, s2, s3 float64) (float64, float64, float64, float64) {
	j := 0
	for _, a := range row {
		w := v[j : j+4 : j+4]
		s0 -= a * w[0]
		s1 -= a * w[1]
		s2 -= a * w[2]
		s3 -= a * w[3]
		j += stride
	}
	return s0, s1, s2, s3
}

// sub1 is sub4 for a single right-hand side.
//
//go:noinline
func sub1(row, v []float64, stride int, s float64) float64 {
	j := 0
	for _, a := range row {
		s -= a * v[j]
		j += stride
	}
	return s
}
