//go:build !amd64

package linalg

// Off amd64 the Go kernels are the only ones: useAVX2 is a constant false,
// so the compiler drops every AVX2 branch and these stubs are never called.
const useAVX2 = false

const noAVX2 = "linalg: AVX2 kernel called off amd64"

func row16(dst, src, coef, v []float64, stride int, d float64) { panic(noAVX2) }

func row4(dst, src, coef, v []float64, stride int, d float64) { panic(noAVX2) }

func colDots(q, r, x []float64, n, k int) { panic(noAVX2) }
