package linalg

import (
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
)

// kernelSet names one value of the simd argument of solveMany and columnDots.
type kernelSet struct {
	name string
	simd bool
}

// testKernels lists every kernel set this binary runs on this CPU: the Go
// kernels always, the AVX2 ones when the CPU has them.
func testKernels() []kernelSet {
	ks := []kernelSet{{"generic", false}}
	if useAVX2 {
		ks = append(ks, kernelSet{"avx2", true})
	}
	return ks
}

// TestKernelDispatch: on linux/amd64, a CPU whose /proc/cpuinfo lists avx2
// must run the AVX2 kernels. Broken detection would pass every other test
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
		t.Fatal("/proc/cpuinfo lists avx2 but the AVX2 kernels are not selected")
	}
	t.Logf("avx2 listed %v, AVX2 kernels selected %v", listed, useAVX2)
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
// zero included) and interleaved right-hand sides, every kernel set's
// solve and quadratic forms must agree with SolveCholesky and Dot over
// each column alone, to the bit; any NaN matches any NaN.
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
		for _, kn := range testKernels() {
			fact.solveMany(x, y, b, k, kn.simd)
			assertBitwise(t, kn.name+" solve", x, want)
			fact.columnDots(q, b, x, k, kn.simd)
			assertBitwise(t, kn.name+" quadratic forms", q, wantQ)
		}
	})
}
