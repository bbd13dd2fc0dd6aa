package linalg

import (
	"fmt"
	"testing"
)

// Layer benchmarks for the dense kernels on the template-attack hot path:
// matrix product (LDA, covariance work), matrix-vector product (DBDD
// covariance updates), and the Cholesky solve (Mahalanobis distances),
// cached versus fresh and class by class versus interleaved.
//
//	go test -bench . ./internal/linalg

func benchmarkMul(b *testing.B, n int) {
	a := seededSPD(n, 1)
	c := seededSPD(n, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Mul(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMul12(b *testing.B)  { benchmarkMul(b, 12) }
func BenchmarkMul128(b *testing.B) { benchmarkMul(b, 128) }

func benchmarkMulVec(b *testing.B, n int) {
	m := seededSPD(n, 3)
	v := seededVec(n, 4)
	dst := make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.MulVecInto(dst, v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMulVec24(b *testing.B)   { benchmarkMulVec(b, 24) }
func BenchmarkMulVec1024(b *testing.B) { benchmarkMulVec(b, 1024) }

// BenchmarkSolveFresh is the pre-optimization scoring pattern: factor and
// allocate on every solve.
func BenchmarkSolveFresh(b *testing.B) {
	m := seededSPD(24, 5)
	rhs := seededVec(24, 6)
	l, err := Cholesky(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveCholesky(l, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveCached is the cached-factor path with reusable buffers.
func BenchmarkSolveCached(b *testing.B) {
	m := seededSPD(24, 5)
	rhs := seededVec(24, 6)
	f, err := NewCholFactor(m)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, 24)
	y := make([]float64, 24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.SolveInto(x, y, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveClassByClass solves the sixteen residuals of a pooled
// 28-POI template against one factor with one SolveInto per class;
// BenchmarkQuadBlock/poi=28/one-vector scores them, sums included, in one
// block.
func BenchmarkSolveClassByClass(b *testing.B) {
	const n, k = 28, 16
	f, err := NewCholFactor(seededSPD(n, 5))
	if err != nil {
		b.Fatal(err)
	}
	rhs := seededVec(n, 6)
	x := make([]float64, n)
	y := make([]float64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := 0; c < k; c++ {
			if err := f.SolveInto(x, y, rhs); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkQuadBlock scores one sixteen-lane block at the shapes of the
// default (12 POIs) and high-accuracy (28 POIs) templates: one feature
// vector against a value template's classes, and four vectors against four
// copies of the sign template's. Each shape runs every kernel set the CPU
// has, called directly, and QuadBlockInto as scoring calls it.
func BenchmarkQuadBlock(b *testing.B) {
	for _, n := range []int{12, 28} {
		f, err := NewCholFactor(seededSPD(n, 5))
		if err != nil {
			b.Fatal(err)
		}
		feat := seededVec(4*n, 6)
		means := seededVec(n*BlockLanes, 7)
		work := make([]float64, twinWork(n))
		q := make([]float64, BlockLanes)
		for _, mode := range blockModes(n) {
			shape := fmt.Sprintf("poi=%d/%s/", n, mode.name)
			for _, kn := range testKernels() {
				b.Run(shape+kn.name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						f.quadBlock(q, feat, mode.fstride, means, work, kn.simd)
					}
				})
			}
			b.Run(shape+"QuadBlockInto", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := f.QuadBlockInto(q, feat, mode.fstride, means, work); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkCholeskyFactor24(b *testing.B) {
	m := seededSPD(24, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Cholesky(m); err != nil {
			b.Fatal(err)
		}
	}
}
