package sampler

import (
	"fmt"
	"math"

	"reveal/internal/modular"
)

// Test oracles: a CDT sampler whose moments the production sampler is
// checked against, and the centered lift and branch-free assignment that
// AssignSigned's round-trip and equivalence tests use.

// CDT is a cumulative-distribution-table Gaussian sampler, the technique of
// the prior-work attacks ([10], [12] in the paper) that do NOT apply to
// SEAL. It is included as a baseline to demonstrate that RevEAL's leakage
// model is specific to SEAL's branching code, not to Gaussian sampling in
// general.
type CDT struct {
	sigma float64
	tail  int64
	// table[k] = P(|X| <= k) scaled to 2^63, for k = 0..tail.
	table []uint64
}

// NewCDT builds the table for a discrete Gaussian of parameter sigma
// truncated at tail*sigma.
func NewCDT(sigma float64, tailCut float64) (*CDT, error) {
	if sigma <= 0 || tailCut <= 0 {
		return nil, fmt.Errorf("sampler: invalid CDT parameters sigma=%v tail=%v", sigma, tailCut)
	}
	tail := int64(math.Ceil(sigma * tailCut))
	// Discrete Gaussian weights rho(k) = exp(-k^2 / (2 sigma^2)).
	weights := make([]float64, tail+1)
	total := 0.0
	for k := int64(0); k <= tail; k++ {
		w := math.Exp(-float64(k*k) / (2 * sigma * sigma))
		if k > 0 {
			w *= 2 // both signs
		}
		weights[k] = w
		total += w
	}
	table := make([]uint64, tail+1)
	cum := 0.0
	for k := int64(0); k <= tail; k++ {
		cum += weights[k]
		table[k] = uint64(cum / total * float64(1<<63))
	}
	table[tail] = 1 << 63 // exact closure against rounding
	return &CDT{sigma: sigma, tail: tail, table: table}, nil
}

// Sample draws one value in [-tail, tail] by binary search over the table
// plus a uniform sign bit. The table walk is the operation prior-work
// attacks template; RevEAL does not rely on it.
func (c *CDT) Sample(p PRNG) int64 {
	r := p.Uint64() >> 1 // 63 uniform bits
	lo, hi := 0, len(c.table)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if r < c.table[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	k := int64(lo)
	if k == 0 {
		return 0
	}
	if p.Uint64()&1 == 1 {
		return -k
	}
	return k
}

// Tail returns the truncation bound of the table.
func (c *CDT) Tail() int64 { return c.tail }

// AssignSignedBranchless is the SEAL v3.6-style patched assignment: no
// secret-dependent branches. It computes both candidate values and selects
// with an arithmetic mask, the pattern the iterator-based rewrite
// introduced ([35] in the paper). Used by the defense ablation.
func AssignSignedBranchless(noise int64, moduli []uint64) []uint64 {
	out := make([]uint64, len(moduli))
	mask := uint64(noise >> 63) // all ones if negative
	mag := (uint64(noise) ^ mask) - mask
	for j, q := range moduli {
		out[j] = (mag & ^mask) | ((q - mag) % q & mask)
	}
	return out
}

// CenterLift maps residues produced by AssignSigned back to the signed
// noise value (test helper and correctness oracle).
func CenterLift(residue, q uint64) int64 {
	return modular.CenteredRep(residue, q)
}

// MaxValue returns the largest magnitude a rounded sample can take.
func (cn *ClippedNormal) MaxValue() int64 {
	return int64(math.Round(cn.MaxDeviation))
}
