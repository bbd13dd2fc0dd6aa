package linalg

import (
	"fmt"
	"math"
	"testing"
)

// seededSPD builds a deterministic symmetric positive definite matrix:
// A A^T + n·I over a cheap LCG fill.
func seededSPD(n int, seed uint64) *Matrix {
	a := NewMatrix(n, n)
	s := seed
	for i := range a.Data {
		s = s*6364136223846793005 + 1442695040888963407
		a.Data[i] = float64(int64(s>>33))/float64(1<<30) - 0.5
	}
	at := a.Transpose()
	spd, err := a.Mul(at)
	if err != nil {
		panic(err)
	}
	for i := 0; i < n; i++ {
		spd.Set(i, i, spd.At(i, i)+float64(n))
	}
	return spd
}

func seededVec(n int, seed uint64) []float64 {
	v := make([]float64, n)
	s := seed
	for i := range v {
		s = s*6364136223846793005 + 1442695040888963407
		v[i] = float64(int64(s>>33)) / float64(1<<31)
	}
	return v
}

// TestCholFactorSolveBitwiseIdentical: the cached factor's solve must agree
// with a fresh Cholesky + SolveCholesky to exact float equality — the
// determinism contract the template scorer and the replay selftest rely on.
func TestCholFactorSolveBitwiseIdentical(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 12, 24, 33} {
		m := seededSPD(n, uint64(n)*977)
		l, err := Cholesky(m)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		f, err := NewCholFactor(m)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for rep := 0; rep < 3; rep++ {
			b := seededVec(n, uint64(n*100+rep))
			want, err := SolveCholesky(l, b)
			if err != nil {
				t.Fatal(err)
			}
			got, err := f.Solve(b)
			if err != nil {
				t.Fatal(err)
			}
			x := make([]float64, n)
			y := make([]float64, n)
			if err := f.SolveInto(x, y, b); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
					t.Fatalf("n=%d rep=%d: Solve[%d] = %x, want %x", n, rep, i,
						math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
				if math.Float64bits(want[i]) != math.Float64bits(x[i]) {
					t.Fatalf("n=%d rep=%d: SolveInto[%d] = %x, want %x", n, rep, i,
						math.Float64bits(x[i]), math.Float64bits(want[i]))
				}
			}
		}
		// The cached log-determinant must match the per-index accumulation
		// the template trainer historically used.
		wantLD := 0.0
		for i := 0; i < n; i++ {
			wantLD += 2 * math.Log(l.At(i, i))
		}
		if math.Float64bits(f.LogDet()) != math.Float64bits(wantLD) {
			t.Fatalf("n=%d: LogDet %v, want %v", n, f.LogDet(), wantLD)
		}
	}
}

// TestSolveManyIntoBitwiseIdentical: every interleaved right-hand side must
// equal a fresh SolveCholesky of that column alone, to the bit, across the
// four-wide blocks, the single-column remainder and every mix of them.
func TestSolveManyIntoBitwiseIdentical(t *testing.T) {
	for n := 1; n <= 40; n++ {
		m := seededSPD(n, uint64(n)*131)
		l, err := Cholesky(m)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		f := CholFactorOf(l)
		for k := 1; k <= 33; k++ {
			b := seededVec(n*k, uint64(n*1000+k))
			want := make([]float64, n*k)
			col := make([]float64, n)
			for c := 0; c < k; c++ {
				for i := range col {
					col[i] = b[i*k+c]
				}
				x, err := SolveCholesky(l, col)
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range x {
					want[i*k+c] = v
				}
			}
			x := make([]float64, n*k)
			y := make([]float64, n*k)
			if err := f.SolveManyInto(x, y, b, k); err != nil {
				t.Fatal(err)
			}
			assertBitwise(t, fmt.Sprintf("SolveManyInto n=%d k=%d", n, k), x, want)
		}
	}
}

// assertBitwise fails unless got and want agree element for element in
// their bits, except that any NaN matches any NaN.
func assertBitwise(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i, w := range want {
		g := got[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s: [%d] = %v (%#x), want %v (%#x)", what, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

func TestCholFactorSolveShapeErrors(t *testing.T) {
	f, err := NewCholFactor(seededSPD(4, 9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve(make([]float64, 5)); err == nil {
		t.Fatal("want rhs length error")
	}
	if err := f.SolveInto(make([]float64, 3), make([]float64, 4), make([]float64, 4)); err == nil {
		t.Fatal("want buffer length error")
	}
	if err := f.SolveManyInto(nil, nil, nil, 0); err == nil {
		t.Fatal("want right-hand-side count error")
	}
	if err := f.SolveManyInto(make([]float64, 8), make([]float64, 8), make([]float64, 12), 2); err == nil {
		t.Fatal("want interleaved rhs length error")
	}
	if err := f.SolveManyInto(make([]float64, 8), make([]float64, 7), make([]float64, 8), 2); err == nil {
		t.Fatal("want interleaved buffer length error")
	}
	if _, err := NewCholFactor(NewMatrix(3, 3)); err == nil {
		t.Fatal("want not-positive-definite error for the zero matrix")
	}
}

func TestCholFactorLowerRoundTrip(t *testing.T) {
	m := seededSPD(6, 42)
	l, err := Cholesky(m)
	if err != nil {
		t.Fatal(err)
	}
	f := CholFactorOf(l)
	got := f.Lower()
	if d := MaxAbsDiff(got, l); d != 0 {
		t.Fatalf("Lower() deviates from the wrapped factor by %g", d)
	}
}

// TestMulVecIntoMatchesMulVec: the unrolled kernel must be bitwise equal to
// the plain index-order loop.
func TestMulVecIntoMatchesMulVec(t *testing.T) {
	for _, shape := range [][2]int{{1, 1}, {3, 5}, {7, 4}, {12, 12}, {5, 33}} {
		rows, cols := shape[0], shape[1]
		m := NewMatrix(rows, cols)
		s := uint64(rows*31 + cols)
		for i := range m.Data {
			s = s*6364136223846793005 + 1442695040888963407
			m.Data[i] = float64(int64(s>>33)) / float64(1<<31)
		}
		v := seededVec(cols, uint64(cols))
		// Reference: the historical simple loop.
		want := make([]float64, rows)
		for i := 0; i < rows; i++ {
			sum := 0.0
			for j := 0; j < cols; j++ {
				sum += m.At(i, j) * v[j]
			}
			want[i] = sum
		}
		got, err := m.MulVec(v)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("%dx%d: MulVec[%d] = %x, want %x", rows, cols, i,
					math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
		if err := m.MulVecInto(make([]float64, rows+1), v); err == nil {
			t.Fatal("want destination length error")
		}
	}
}

// TestMulBlockedMatchesNaive: the blocked product must match the naive
// i-k-j accumulation bit for bit, including the zero-skip semantics.
func TestMulBlockedMatchesNaive(t *testing.T) {
	for _, shape := range [][3]int{{1, 1, 1}, {3, 4, 5}, {12, 12, 12}, {9, 70, 6}, {5, 130, 7}} {
		ra, ca, cb := shape[0], shape[1], shape[2]
		a := NewMatrix(ra, ca)
		b := NewMatrix(ca, cb)
		s := uint64(ra*7 + ca*11 + cb)
		fill := func(m *Matrix) {
			for i := range m.Data {
				s = s*6364136223846793005 + 1442695040888963407
				if s%17 == 0 {
					m.Data[i] = 0 // exercise the zero-skip path
					continue
				}
				m.Data[i] = float64(int64(s>>33)) / float64(1<<31)
			}
		}
		fill(a)
		fill(b)
		want := NewMatrix(ra, cb)
		for i := 0; i < ra; i++ {
			for k := 0; k < ca; k++ {
				av := a.At(i, k)
				if av == 0 {
					continue
				}
				for j := 0; j < cb; j++ {
					want.Set(i, j, want.At(i, j)+av*b.At(k, j))
				}
			}
		}
		got, err := a.Mul(b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Data {
			if math.Float64bits(want.Data[i]) != math.Float64bits(got.Data[i]) {
				t.Fatalf("%v: Mul data[%d] = %x, want %x", shape, i,
					math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
			}
		}
	}
}
