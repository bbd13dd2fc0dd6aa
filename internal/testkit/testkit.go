// Package testkit is the repo-wide correctness harness: seeded generators
// for property-based tests, slow math/big reference implementations the
// fast ring/modular/bfv arithmetic is differentially tested against,
// golden-vector helpers with a shared -update flag, and a Prometheus text
// parser that validates /metrics expositions.
//
// The harness has four layers (see docs/TESTING.md):
//
//   - differential tests: fast arithmetic vs. the math/big reference here
//   - golden vectors: checked-in testdata/ files, regenerated with -update
//   - property tests: seeded-generator invariants (ring laws, round trips,
//     noise bounds, distribution moments, posterior normalization)
//   - fuzz targets and the end-to-end replay-determinism gate
//
// Packages under test import testkit from *external* test packages
// (package foo_test) because testkit itself depends on ring and sampler.
package testkit

import (
	"reveal/internal/ring"
	"reveal/internal/sampler"
)

// RNG is a seeded deterministic generator for property-based tests. Every
// test derives its inputs from an explicit seed so failures reproduce with
// the seed alone.
type RNG struct {
	src *sampler.Xoshiro256
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{src: sampler.NewXoshiro256(seed)}
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 { return r.src.Uint64() }

// Uint64Below returns a uniform value in [0, bound), bound > 0.
func (r *RNG) Uint64Below(bound uint64) uint64 {
	return sampler.Uint64Below(r.src, bound)
}

// Float64 returns a uniform double in [0, 1).
func (r *RNG) Float64() float64 { return sampler.Float64(r.src) }

// Int64Centered returns a uniform value in [-bound, bound].
func (r *RNG) Int64Centered(bound int64) int64 {
	if bound <= 0 {
		return 0
	}
	return int64(r.Uint64Below(uint64(2*bound+1))) - bound
}

// Residues returns n uniform residues in [0, q).
func (r *RNG) Residues(n int, q uint64) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64Below(q)
	}
	return out
}

// SignedCoeffs returns n uniform centered coefficients in [-bound, bound].
func (r *RNG) SignedCoeffs(n int, bound int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = r.Int64Centered(bound)
	}
	return out
}

// Bytes returns n uniform bytes.
func (r *RNG) Bytes(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(r.Uint64())
	}
	return out
}

// Poly fills a fresh polynomial of ctx with uniform residues per modulus
// (coefficient representation).
func (r *RNG) Poly(ctx *ring.Context) *ring.Poly {
	p := ctx.NewPoly()
	for j, q := range ctx.Moduli {
		for i := range p.Coeffs[j] {
			p.Coeffs[j][i] = r.Uint64Below(q)
		}
	}
	return p
}

// PRNG exposes the RNG as a sampler.PRNG for code that consumes one.
func (r *RNG) PRNG() sampler.PRNG { return r.src }
