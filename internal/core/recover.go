package core

import (
	"fmt"
	"sort"

	"reveal/internal/bfv"
	"reveal/internal/modular"
	"reveal/internal/ring"
)

// uSolver inverts Eq. 2 of the paper, u = (c1 − e2) · p1^−1 in R_q, for
// one ciphertext under one public key. p1^−1 is computed once, in the NTT
// domain, and every e2 candidate reuses one polynomial, so a candidate
// costs one NTT, a pointwise product and one inverse NTT.
type uSolver struct {
	ctx   *ring.Context
	c1    *ring.Poly
	p1Inv *ring.Poly // NTT domain
	u     *ring.Poly // the last candidate's u
}

func newUSolver(params *bfv.Parameters, pk *bfv.PublicKey, ct *bfv.Ciphertext) (*uSolver, error) {
	ctx := params.Context()
	p1Inv := pk.P1.Clone()
	ctx.NTT(p1Inv)
	for j, q := range params.Moduli {
		for i, c := range p1Inv.Coeffs[j] {
			inv, ok := modular.Inverse(c, q)
			if !ok {
				return nil, fmt.Errorf("core: p1 not invertible at slot (%d,%d)", j, i)
			}
			p1Inv.Coeffs[j][i] = inv
		}
	}
	return &uSolver{ctx: ctx, c1: ct.C[1], p1Inv: p1Inv, u: ctx.NewPoly()}, nil
}

// solve sets s.u to the u of the e2 candidate and reports whether it is
// ternary — the verification oracle that tells the attacker whether the e2
// guess was exactly right (u is sampled from R_2, so a wrong e2 yields a
// non-ternary u with overwhelming probability).
func (s *uSolver) solve(e2 []int64) (bool, error) {
	ctx, u := s.ctx, s.u
	if err := ctx.SetSigned(u, e2); err != nil {
		return false, err
	}
	ctx.Sub(s.c1, u, u)
	ctx.NTT(u)
	ctx.MulCoeffwise(u, s.p1Inv, u)
	ctx.INTT(u)
	return isTernary(ctx, u), nil
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

// recoverMessage completes Eq. 3: with u known, c0 − p0·u = Δ·m + e1, and
// rounding by t/Q removes e1 exactly (‖e1‖∞ < Δ/2), as decryption rounds
// its phase.
func recoverMessage(params *bfv.Parameters, pk *bfv.PublicKey, ct *bfv.Ciphertext, u *ring.Poly) *bfv.Plaintext {
	ctx := params.Context()
	phase := ctx.NewPoly()
	ctx.MulPoly(pk.P0, u, phase)
	ctx.Sub(ct.C[0], phase, phase)
	return params.RoundPhase(phase)
}

// RepairAndRecover searches the residual space the template attack leaves:
// coefficients are ranked by posterior confidence and the least certain
// ones are re-guessed from their probability tables (top-k candidates per
// coordinate, depth-first with a trial budget), each candidate verified via
// the ternary-u oracle. This plays the role of the paper's BKZ exploration
// of the remaining search space, using the exact verification available in
// the single-modulus setting. p1 is inverted once per search; a p1 that is
// not invertible fails before the first trial.
func RepairAndRecover(params *bfv.Parameters, pk *bfv.PublicKey, ct *bfv.Ciphertext,
	attack *AttackResult, maxDepth, maxTrials int) (*bfv.Plaintext, []int64, int, error) {

	solver, err := newUSolver(params, pk, ct)
	if err != nil {
		return nil, nil, 0, err
	}
	e2 := make([]int64, len(attack.Values))
	for i, v := range attack.Values {
		e2[i] = int64(v)
	}
	trials := 0
	try := func(cand []int64) *bfv.Plaintext {
		trials++
		if ternary, err := solver.solve(cand); err != nil || !ternary {
			return nil
		}
		return recoverMessage(params, pk, ct, solver.u)
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
