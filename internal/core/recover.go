package core

import (
	"fmt"
	"math/big"
	"sort"

	"reveal/internal/bfv"
	"reveal/internal/modular"
	"reveal/internal/ring"
)

// RecoverU inverts Eq. 2 of the paper: u = (c1 − e2) · p1^−1 in R_q. It
// also reports whether the recovered u is ternary — the verification oracle
// that tells the attacker whether the e2 guess was exactly right (u is
// sampled from R_2, so a wrong e2 yields a non-ternary u with overwhelming
// probability).
func RecoverU(params *bfv.Parameters, pk *bfv.PublicKey, ct *bfv.Ciphertext, e2 []int64) (*ring.Poly, bool, error) {
	ctx := params.Context()
	if len(e2) != ctx.N {
		return nil, false, fmt.Errorf("core: e2 has %d coefficients, want %d", len(e2), ctx.N)
	}
	e2Poly := ctx.NewPoly()
	if err := ctx.SetSigned(e2Poly, e2); err != nil {
		return nil, false, err
	}
	// diff = c1 - e2 (coefficient domain).
	diff := ctx.NewPoly()
	ctx.Sub(ct.C[1], e2Poly, diff)

	// Divide by p1 pointwise in the NTT domain.
	p1 := pk.P1.Clone()
	ctx.NTT(p1)
	ctx.NTT(diff)
	u := ctx.NewPoly()
	for j, q := range params.Moduli {
		for i := 0; i < ctx.N; i++ {
			inv, ok := modular.Inverse(p1.Coeffs[j][i], q)
			if !ok {
				return nil, false, fmt.Errorf("core: p1 not invertible at slot (%d,%d)", j, i)
			}
			u.Coeffs[j][i] = modular.Mul(diff.Coeffs[j][i], inv, q)
		}
	}
	u.InNTT = true
	ctx.INTT(u)

	return u, isTernary(ctx, u), nil
}

// isTernary reports whether every centered coefficient of p is in {-1,0,1}.
func isTernary(ctx *ring.Context, p *ring.Poly) bool {
	q0 := ctx.Moduli[0]
	for i := 0; i < ctx.N; i++ {
		c := p.Coeffs[0][i]
		if c != 0 && c != 1 && c != q0-1 {
			return false
		}
	}
	// All residues must agree on the centered value (multi-modulus case).
	for j := 1; j < len(ctx.Moduli); j++ {
		qj := ctx.Moduli[j]
		for i := 0; i < ctx.N; i++ {
			want := p.Coeffs[0][i]
			var wantC int64
			switch want {
			case 0:
				wantC = 0
			case 1:
				wantC = 1
			default:
				wantC = -1
			}
			got := p.Coeffs[j][i]
			switch wantC {
			case 0:
				if got != 0 {
					return false
				}
			case 1:
				if got != 1 {
					return false
				}
			default:
				if got != qj-1 {
					return false
				}
			}
		}
	}
	return true
}

// RecoverMessage completes Eq. 3: with u known, c0 − p0·u = Δ·m + e1, and
// rounding by t/Q removes e1 exactly (‖e1‖∞ < Δ/2).
func RecoverMessage(params *bfv.Parameters, pk *bfv.PublicKey, ct *bfv.Ciphertext, u *ring.Poly) (*bfv.Plaintext, error) {
	ctx := params.Context()
	phase := ctx.NewPoly()
	ctx.MulPoly(pk.P0, u, phase)
	ctx.Sub(ct.C[0], phase, phase)

	pt := params.NewPlaintext()
	bigQ := ctx.BigQ()
	bigT := new(big.Int).SetUint64(params.T)
	halfQ := new(big.Int).Rsh(bigQ, 1)
	num := new(big.Int)
	for i := 0; i < ctx.N; i++ {
		x := ctx.ComposeCRT(phase, i)
		num.Mul(x, bigT)
		num.Add(num, halfQ)
		num.Quo(num, bigQ)
		num.Mod(num, bigT)
		pt.Coeffs[i] = num.Uint64()
	}
	return pt, nil
}

// RecoverMessageFromE2 chains RecoverU and RecoverMessage, failing when the
// ternary verification rejects the e2 candidate.
func RecoverMessageFromE2(params *bfv.Parameters, pk *bfv.PublicKey, ct *bfv.Ciphertext, e2 []int64) (*bfv.Plaintext, error) {
	u, ternary, err := RecoverU(params, pk, ct, e2)
	if err != nil {
		return nil, err
	}
	if !ternary {
		return nil, fmt.Errorf("core: recovered u is not ternary: e2 candidate rejected")
	}
	return RecoverMessage(params, pk, ct, u)
}

// RepairAndRecover searches the residual space the template attack leaves:
// coefficients are ranked by posterior confidence and the least certain
// ones are re-guessed from their probability tables (top-k candidates per
// coordinate, depth-first with a trial budget), each candidate verified via
// the ternary-u oracle. This plays the role of the paper's BKZ exploration
// of the remaining search space, using the exact verification available in
// the single-modulus setting.
func RepairAndRecover(params *bfv.Parameters, pk *bfv.PublicKey, ct *bfv.Ciphertext,
	attack *AttackResult, maxDepth, maxTrials int) (*bfv.Plaintext, []int64, int, error) {

	e2 := make([]int64, len(attack.Values))
	for i, v := range attack.Values {
		e2[i] = int64(v)
	}
	trials := 0
	try := func(cand []int64) *bfv.Plaintext {
		trials++
		pt, err := RecoverMessageFromE2(params, pk, ct, cand)
		if err != nil {
			return nil
		}
		return pt
	}
	if pt := try(e2); pt != nil {
		return pt, e2, trials, nil
	}

	// Rank all coordinates by confidence of the chosen value, ascending.
	type doubt struct {
		idx  int
		conf float64
	}
	doubts := make([]doubt, len(attack.Values))
	for i := range attack.Values {
		doubts[i] = doubt{idx: i, conf: attack.Probs[i].At(attack.Values[i])}
	}
	sort.Slice(doubts, func(a, b int) bool { return doubts[a].conf < doubts[b].conf })

	// Up to four alternative candidates per coordinate, by posterior mass,
	// equal masses in ascending label order; computed once per coordinate.
	alts := make([][]int, len(attack.Values))
	altsFor := func(i int) []int {
		if alts[i] != nil {
			return alts[i]
		}
		post := attack.Probs[i]
		cands := make([]int, 0, len(post.Labels))
		for _, v := range post.Labels {
			if v != attack.Values[i] {
				cands = append(cands, v)
			}
		}
		sort.SliceStable(cands, func(a, b int) bool { return post.At(cands[a]) > post.At(cands[b]) })
		alts[i] = cands[:min(len(cands), 4)]
		return alts[i]
	}

	// Stage 1: single substitutions over every coordinate, least confident
	// first — catches any single misclassification.
	for _, d := range doubts {
		if trials >= maxTrials {
			break
		}
		orig := e2[d.idx]
		for _, alt := range altsFor(d.idx) {
			e2[d.idx] = int64(alt)
			if pt := try(e2); pt != nil {
				return pt, e2, trials, nil
			}
			if trials >= maxTrials {
				break
			}
		}
		e2[d.idx] = orig
	}

	// Stages 2 and 3: pairs and triples within the maxDepth least-confident
	// coordinates.
	window := maxDepth
	if window > len(doubts) {
		window = len(doubts)
	}
	for a := 0; a < window && trials < maxTrials; a++ {
		ia := doubts[a].idx
		origA := e2[ia]
		for _, altA := range altsFor(ia) {
			e2[ia] = int64(altA)
			for b := a + 1; b < window && trials < maxTrials; b++ {
				ib := doubts[b].idx
				origB := e2[ib]
				for _, altB := range altsFor(ib) {
					e2[ib] = int64(altB)
					if pt := try(e2); pt != nil {
						return pt, e2, trials, nil
					}
					// Triple: extend with a third coordinate.
					for c := b + 1; c < window && trials < maxTrials; c++ {
						ic := doubts[c].idx
						origC := e2[ic]
						for _, altC := range altsFor(ic) {
							e2[ic] = int64(altC)
							if pt := try(e2); pt != nil {
								return pt, e2, trials, nil
							}
						}
						e2[ic] = origC
					}
				}
				e2[ib] = origB
			}
		}
		e2[ia] = origA
	}
	return nil, nil, trials, fmt.Errorf("core: residual search exhausted after %d trials", trials)
}
