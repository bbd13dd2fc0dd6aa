package sampler

import "math"

// polarTail sets u[i] to u[i]·√(−2·ln s[i] / s[i]) for every i, the
// polar method's tail over accepted candidates. polarPairs runs the pairs;
// an odd last entry takes NormFloat64's expression, whose math.Log is the
// scalar form of the same instructions.
func polarTail(u, s []float64) {
	n := len(u) &^ 1
	polarPairs(u[:n], s[:n])
	if n < len(u) {
		u[n] = u[n] * math.Sqrt(-2*math.Log(s[n])/s[n])
	}
}

// polarPairs is polarTail over an even number of entries, two per step in
// SSE2, which every amd64 CPU has. The logarithm is math.Log's amd64
// assembly with each scalar …SD instruction replaced by its packed …PD
// twin, in the same order on the same operands, so each lane is
// Float64bits-equal to math.Log; DIVPD, SQRTPD and MULPD round like the
// scalar division, math.Sqrt and product. Every s must lie in (0, 1), as
// an accepted candidate does: math.Log's special cases (0, negative,
// infinite, NaN) are left out.
//
//go:noescape
func polarPairs(u, s []float64)
