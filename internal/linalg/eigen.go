package linalg

import (
	"fmt"
	"math"
	"sort"
)

// EigSym computes the eigendecomposition of a symmetric matrix using the
// cyclic Jacobi method: m = V diag(λ) Vᵀ, eigenvalues sorted descending
// with matching eigenvector columns. Robust and dependency-free; intended
// for the moderate dimensions of template work.
func EigSym(m *Matrix, tol float64, maxSweeps int) (values []float64, vectors *Matrix, err error) {
	if m.Rows != m.Cols {
		return nil, nil, fmt.Errorf("linalg: EigSym needs a square matrix, got %dx%d", m.Rows, m.Cols)
	}
	if !m.IsSymmetric(1e-9 * (1 + maxAbs(m))) {
		return nil, nil, fmt.Errorf("linalg: EigSym needs a symmetric matrix")
	}
	if tol <= 0 {
		tol = 1e-12
	}
	if maxSweeps <= 0 {
		maxSweeps = 64
	}
	n := m.Rows
	a := m.Clone()
	v := Identity(n)

	offDiag := func() float64 {
		s := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				s += a.At(i, j) * a.At(i, j)
			}
		}
		return math.Sqrt(s)
	}
	scale := 1 + maxAbs(m)

	for sweep := 0; sweep < maxSweeps; sweep++ {
		if offDiag() <= tol*scale {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := a.At(p, q)
				if math.Abs(apq) <= tol*scale/float64(n*n) {
					continue
				}
				app, aqq := a.At(p, p), a.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				// Rotate rows/columns p and q of a.
				for k := 0; k < n; k++ {
					akp, akq := a.At(k, p), a.At(k, q)
					a.Set(k, p, c*akp-s*akq)
					a.Set(k, q, s*akp+c*akq)
				}
				for k := 0; k < n; k++ {
					apk, aqk := a.At(p, k), a.At(q, k)
					a.Set(p, k, c*apk-s*aqk)
					a.Set(q, k, s*apk+c*aqk)
				}
				// Accumulate the rotation into v.
				for k := 0; k < n; k++ {
					vkp, vkq := v.At(k, p), v.At(k, q)
					v.Set(k, p, c*vkp-s*vkq)
					v.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}

	// Extract and sort descending.
	type pair struct {
		val float64
		idx int
	}
	pairs := make([]pair, n)
	for i := range pairs {
		pairs[i] = pair{a.At(i, i), i}
	}
	sort.Slice(pairs, func(x, y int) bool { return pairs[x].val > pairs[y].val })
	values = make([]float64, n)
	vectors = NewMatrix(n, n)
	for col, p := range pairs {
		values[col] = p.val
		for row := 0; row < n; row++ {
			vectors.Set(row, col, v.At(row, p.idx))
		}
	}
	return values, vectors, nil
}

func maxAbs(m *Matrix) float64 {
	out := 0.0
	for _, v := range m.Data {
		if a := math.Abs(v); a > out {
			out = a
		}
	}
	return out
}
