//go:build !amd64

package linalg

// Off amd64 the Go kernels are the only ones: useAVX2 is a constant false,
// so the compiler drops every AVX2 branch and this stub is never called.
const useAVX2 = false

func quadBlock16(q, feat []float64, fstride int, means, lower, upper, diag, work []float64) {
	panic("linalg: AVX2 kernel called off amd64")
}
