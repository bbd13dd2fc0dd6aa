package linalg

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
)

// kernelSet names one value of the simd argument of quadBlock.
type kernelSet struct {
	name string
	simd bool
}

// testKernels lists every block kernel this binary runs on this CPU: the Go
// twin always, the AVX2 one when the CPU has it.
func testKernels() []kernelSet {
	ks := []kernelSet{{"generic", false}}
	if useAVX2 {
		ks = append(ks, kernelSet{"avx2", true})
	}
	return ks
}

// TestKernelDispatch: on linux/amd64, a CPU whose /proc/cpuinfo lists avx2
// must run the AVX2 kernel. Broken detection would pass every other test
// and only lose the speed-up.
func TestKernelDispatch(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("cpuinfo check is for linux/amd64, not %s/%s", runtime.GOOS, runtime.GOARCH)
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	listed := false
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			listed = listed || strings.Contains(" "+flags+" ", " avx2 ")
		}
	}
	if listed && !useAVX2 {
		t.Fatal("/proc/cpuinfo lists avx2 but the AVX2 kernel is not selected")
	}
	t.Logf("avx2 listed %v, AVX2 kernel selected %v", listed, useAVX2)
}

// blockReference computes one QuadBlockInto block lane by lane: the
// residual loop, SolveCholesky and Dot over each lane alone.
func blockReference(t *testing.T, l *Matrix, feat []float64, fstride int, means []float64) []float64 {
	t.Helper()
	n := l.Rows
	want := make([]float64, BlockLanes)
	r := make([]float64, n)
	for j := range want {
		for i := range r {
			r[i] = feat[j/4*fstride+i] - means[i*BlockLanes+j]
		}
		x, err := SolveCholesky(l, r)
		if err != nil {
			t.Fatal(err)
		}
		want[j] = Dot(r, x)
	}
	return want
}

// twinWork is the scratch the Go twin needs at n features, the most any
// block kernel needs.
func twinWork(n int) int { return 3 * n * BlockLanes }

// blockMode is one of QuadBlockInto's feature layouts.
type blockMode struct {
	name    string
	fstride int
}

// blockModes lists both layouts at n features: one vector read by every
// lane, and four vectors, one per group of four lanes.
func blockModes(n int) []blockMode {
	return []blockMode{{"one-vector", 0}, {"four-vectors", n}}
}

// TestQuadBlockBitwiseIdentical: every lane of a block must equal its own
// residual, SolveCholesky and Dot to the bit, for every kernel set the CPU
// runs, in both feature layouts; QuadBlockInto must match too, whichever
// set it dispatches to.
func TestQuadBlockBitwiseIdentical(t *testing.T) {
	for _, n := range []int{1, 2, 3, 12, 28, 40} {
		l, err := Cholesky(seededSPD(n, uint64(n)*53))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		f := CholFactorOf(l)
		feat := seededVec(4*n, uint64(n)*7+1)
		means := seededVec(n*BlockLanes, uint64(n)*7+2)
		work := make([]float64, twinWork(n))
		q := make([]float64, BlockLanes)
		for _, mode := range blockModes(n) {
			want := blockReference(t, l, feat, mode.fstride, means)
			for _, kn := range testKernels() {
				clear(q)
				f.quadBlock(q, feat, mode.fstride, means, work, kn.simd)
				assertBitwise(t, fmt.Sprintf("%s n=%d %s", kn.name, n, mode.name), q, want)
			}
			clear(q)
			if err := f.QuadBlockInto(q, feat[:3*mode.fstride+n], mode.fstride, means, work); err != nil {
				t.Fatal(err)
			}
			assertBitwise(t, fmt.Sprintf("QuadBlockInto n=%d %s", n, mode.name), q, want)
		}
	}
}

// TestQuadBlockShapeErrors covers QuadBlockInto's buffer checks and the
// empty factor, whose forms are sums over no terms: +0.
func TestQuadBlockShapeErrors(t *testing.T) {
	f, err := NewCholFactor(seededSPD(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	q := make([]float64, BlockLanes)
	feat := make([]float64, 12)
	means := make([]float64, 3*BlockLanes)
	work := make([]float64, f.BlockWork())
	for _, c := range []struct {
		name        string
		q, feat     []float64
		fstride     int
		means, work []float64
	}{
		{"short q", q[:15], feat, 0, means, work},
		{"negative stride", q, feat, -1, means, work},
		{"short features", q, feat[:11], 3, means, work},
		{"short means", q, feat, 0, means[:47], work},
		{"short work", q, feat, 0, means, work[:len(work)-1]},
	} {
		if err := f.QuadBlockInto(c.q, c.feat, c.fstride, c.means, c.work); err == nil {
			t.Errorf("%s: want an error", c.name)
		}
	}
	empty := CholFactorOf(NewMatrix(0, 0))
	for i := range q {
		q[i] = 1
	}
	if err := empty.QuadBlockInto(q, nil, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	assertBitwise(t, "empty factor", q, make([]float64, BlockLanes))
}

// fuzzReader draws values from fuzz input, reading zeros once it runs out.
type fuzzReader []byte

func (r *fuzzReader) next() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

// float draws an ordinary value most of the time, and otherwise one of the
// values that stress IEEE semantics: signed zeros, subnormals, magnitudes
// near overflow and underflow, infinities and NaN.
func (r *fuzzReader) float() float64 {
	sel, hi, lo := r.next(), r.next(), r.next()
	v := float64(int16(uint16(hi)<<8|uint16(lo))) / 256
	switch sel % 16 {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return v * 5e-324
	case 3:
		return v * 1e-300
	case 4:
		return v * 1e300
	case 5:
		return math.Inf(1)
	case 6:
		return math.Inf(-1)
	case 7:
		return math.NaN()
	}
	return v
}

// FuzzSolveKernels: for a drawn lower-triangular factor (any diagonal,
// zero included) and interleaved right-hand sides, the interleaved solve
// and quadratic forms must agree with SolveCholesky and Dot over each
// column alone, to the bit; any NaN matches any NaN. Features and means
// drawn for the same factor must give every block kernel the CPU runs, in
// both feature layouts, the lanes of blockReference.
func FuzzSolveKernels(f *testing.F) {
	f.Add([]byte{3, 5, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{27, 15, 200, 17, 33, 8, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{11, 3, 7, 6, 5, 4, 3, 2, 1, 0, 0, 7, 0, 0, 1, 0, 0, 2, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzReader(data)
		n, k := 1+int(r.next()%32), 1+int(r.next()%34)
		nq := int(r.next()) % (k + 1)
		l := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				l.Set(i, j, r.float())
			}
		}
		b := make([]float64, n*k)
		for i := range b {
			b[i] = r.float()
		}
		fact := CholFactorOf(l)
		want := make([]float64, n*k)
		wantQ := make([]float64, nq)
		col := make([]float64, n)
		for c := 0; c < k; c++ {
			for i := range col {
				col[i] = b[i*k+c]
			}
			sol, err := SolveCholesky(l, col)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range sol {
				want[i*k+c] = v
			}
			if c < nq {
				wantQ[c] = Dot(col, sol)
			}
		}
		x := make([]float64, n*k)
		y := make([]float64, n*k)
		q := make([]float64, nq)
		fact.solveMany(x, y, b, k)
		assertBitwise(t, "solve", x, want)
		columnDots(q, b, x, k)
		assertBitwise(t, "quadratic forms", q, wantQ)

		feat := make([]float64, 4*n)
		for i := range feat {
			feat[i] = r.float()
		}
		means := make([]float64, n*BlockLanes)
		for i := range means {
			means[i] = r.float()
		}
		work := make([]float64, twinWork(n))
		bq := make([]float64, BlockLanes)
		for _, mode := range blockModes(n) {
			wantB := blockReference(t, l, feat, mode.fstride, means)
			for _, kn := range testKernels() {
				fact.quadBlock(bq, feat, mode.fstride, means, work, kn.simd)
				assertBitwise(t, kn.name+" block "+mode.name, bq, wantB)
			}
		}
	})
}
