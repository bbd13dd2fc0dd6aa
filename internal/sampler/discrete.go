package sampler

import "fmt"

// TernaryPoly samples n coefficients uniformly from {-1, 0, 1}, SEAL's R_2
// distribution used for the secret key and the encryption sample u.
func TernaryPoly(p PRNG, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(Uint64Below(p, 3)) - 1
	}
	return out
}

// UniformPoly samples n coefficients uniformly from [0, q), SEAL's R_q
// distribution used for the public key component a.
func UniformPoly(p PRNG, n int, q uint64) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = Uint64Below(p, q)
	}
	return out
}

// AssignSigned is the vulnerable SEAL v3.2 sign-assignment (Fig. 2 of the
// paper) expressed in Go: given a sampled noise value it produces the
// residues stored into the error polynomial for each coefficient modulus.
// The control flow intentionally mirrors the C++:
//
//	if noise > 0      -> store noise
//	else if noise < 0 -> negate, store q_j - noise
//	else              -> store 0
//
// Branch reports which path executed (the paper's V1 leakage).
type Branch int

// Branch outcomes of the sign assignment.
const (
	BranchZero     Branch = iota // noise == 0
	BranchPositive               // noise > 0
	BranchNegative               // noise < 0
)

// String implements fmt.Stringer.
func (b Branch) String() string {
	switch b {
	case BranchZero:
		return "zero"
	case BranchPositive:
		return "positive"
	case BranchNegative:
		return "negative"
	default:
		return fmt.Sprintf("Branch(%d)", int(b))
	}
}

// AssignSigned computes the stored residues for each modulus and the branch
// taken, exactly as SEAL v3.2's set_poly_coeffs_normal does.
func AssignSigned(noise int64, moduli []uint64) ([]uint64, Branch) {
	out := make([]uint64, len(moduli))
	switch {
	case noise > 0:
		for j := range moduli {
			out[j] = uint64(noise)
		}
		return out, BranchPositive
	case noise < 0:
		neg := uint64(-noise)
		for j, q := range moduli {
			out[j] = q - neg
		}
		return out, BranchNegative
	default:
		return out, BranchZero
	}
}
