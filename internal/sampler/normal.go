package sampler

import (
	"fmt"
	"math"
)

// SEAL v3.2 defaults: noise_standard_deviation = 3.20 in the docs, with the
// documented value 3.19 ≈ 8/sqrt(2π) used throughout the paper, and a
// maximum deviation of 12.8 σ so sampled coefficients fall in [-41, 41]
// (§II-A of the paper).
const (
	// DefaultSigma is SEAL's default noise standard deviation, 8/sqrt(2π).
	DefaultSigma = 3.19153824321146452 // 8 / sqrt(2*pi)
	// DefaultMaxDeviation clips the distribution at ±12.8 σ ≈ ±40.8, so
	// rounded samples lie in [-41, 41] as the paper states.
	DefaultMaxDeviation = DefaultSigma * 12.8
)

// SampleMeta describes how a single Gaussian draw unfolded; the device
// model uses it to reproduce the time-variant execution the paper observes.
type SampleMeta struct {
	// Rejections counts rejected candidates inside the normal draw plus
	// re-draws due to the max-deviation clipping.
	Rejections int
	// Raw is the accepted double before rounding.
	Raw float64
}

// ClippedNormal mirrors SEAL v3.2's ClippedNormalDistribution: draw a
// normal double with the given σ, redraw while |x| > maxDeviation, and
// round to the nearest integer.
type ClippedNormal struct {
	Sigma        float64
	MaxDeviation float64
}

// NewClippedNormal validates the parameters (σ > 0, maxDeviation ≥ σ).
func NewClippedNormal(sigma, maxDeviation float64) (*ClippedNormal, error) {
	if sigma <= 0 || math.IsNaN(sigma) || math.IsInf(sigma, 0) {
		return nil, fmt.Errorf("sampler: sigma %v must be positive and finite", sigma)
	}
	if maxDeviation < sigma {
		return nil, fmt.Errorf("sampler: max deviation %v must be at least sigma %v", maxDeviation, sigma)
	}
	return &ClippedNormal{Sigma: sigma, MaxDeviation: maxDeviation}, nil
}

// DefaultClippedNormal returns the sampler with SEAL's default parameters.
func DefaultClippedNormal() *ClippedNormal {
	cn, err := NewClippedNormal(DefaultSigma, DefaultMaxDeviation)
	if err != nil {
		panic(err) // defaults are statically valid
	}
	return cn
}

// Sample draws one coefficient: a normal double clipped to ±MaxDeviation
// and rounded to the nearest integer, with metadata describing the
// time-variant part of the draw.
func (cn *ClippedNormal) Sample(p PRNG) (int64, SampleMeta) {
	meta := SampleMeta{}
	for {
		z, rej := NormFloat64(p)
		meta.Rejections += rej
		x := z * cn.Sigma
		if math.Abs(x) > cn.MaxDeviation {
			meta.Rejections++
			continue
		}
		meta.Raw = x
		// C++ std::round semantics: half away from zero.
		return int64(math.Round(x)), meta
	}
}

// SamplePoly fills out with n clipped-normal coefficients and returns the
// per-coefficient metadata (aligned with the output slice).
func (cn *ClippedNormal) SamplePoly(p PRNG, n int) ([]int64, []SampleMeta) {
	values := make([]int64, n)
	metas := make([]SampleMeta, n)
	for i := 0; i < n; i++ {
		values[i], metas[i] = cn.Sample(p)
	}
	return values, metas
}
