//go:build !amd64

package sampler

import "math"

// polarTail sets u[i] to u[i]·√(−2·ln s[i] / s[i]) for every i, the
// polar method's tail over accepted candidates, with NormFloat64's
// expression.
func polarTail(u, s []float64) {
	for i, si := range s {
		u[i] = u[i] * math.Sqrt(-2*math.Log(si)/si)
	}
}
