package bfv

import (
	"reveal/internal/modular"
	"reveal/internal/ring"
	"reveal/internal/sampler"
)

// SecretKey holds the ternary secret polynomial s (coefficient domain).
type SecretKey struct {
	S *ring.Poly
	// Signed is the centered form of s, kept for analysis and tests.
	Signed []int64
}

// PublicKey is the BFV public key pk = (p0, p1) with
// p0 = [-(a·s + e)]_Q and p1 = a.
type PublicKey struct {
	P0, P1 *ring.Poly
}

// RelinDigitBits is the width of the base-2^w digit decomposition used
// inside each RNS residue by the relinearization gadget. Smaller digits
// mean more keys but less noise growth.
const RelinDigitBits = 16

// RelinKey supports relinearization of degree-2 ciphertexts using an RNS ×
// base-2^w gadget: for residue j and digit l,
//
//	B[j][l] = [-(A[j][l]·s + e) + 2^(w·l)·g_j·s²]_Q
//
// where g_j = (Q/q_j)·((Q/q_j)^-1 mod q_j) is the CRT gadget (≡1 mod q_j,
// ≡0 elsewhere).
type RelinKey struct {
	B, A [][]*ring.Poly
}

// KeyGenerator derives keys from a parameter set and a PRNG.
type KeyGenerator struct {
	params *Parameters
	prng   sampler.PRNG
}

// NewKeyGenerator creates a key generator. The PRNG must not be shared with
// an encryptor mid-operation if reproducibility matters.
func NewKeyGenerator(params *Parameters, prng sampler.PRNG) *KeyGenerator {
	return &KeyGenerator{params: params, prng: prng}
}

// GenSecretKey samples s uniformly from R_2 (ternary), as SEAL does.
func (kg *KeyGenerator) GenSecretKey() *SecretKey {
	ctx := kg.params.Context()
	signed := sampler.TernaryPoly(kg.prng, ctx.N)
	s := ctx.NewPoly()
	if err := ctx.SetSigned(s, signed); err != nil {
		panic(err) // length is correct by construction
	}
	return &SecretKey{S: s, Signed: signed}
}

// GenPublicKey computes pk = ([-(a·s+e)]_Q, a) with a ← R_Q uniform and
// e ← χ (the clipped normal distribution).
func (kg *KeyGenerator) GenPublicKey(sk *SecretKey) *PublicKey {
	ctx := kg.params.Context()
	a := kg.uniformPoly()
	e := kg.noisePoly()

	// p0 = -(a*s + e)
	as := ctx.NewPoly()
	ctx.MulPoly(a, sk.S, as)
	ctx.Add(as, e, as)
	p0 := ctx.NewPoly()
	ctx.Neg(as, p0)
	return &PublicKey{P0: p0, P1: a}
}

// GenRelinKey computes the RNS × base-2^w gadget relinearization key for s².
func (kg *KeyGenerator) GenRelinKey(sk *SecretKey) (*RelinKey, error) {
	ctx := kg.params.Context()
	k := ctx.Level()
	rk := &RelinKey{B: make([][]*ring.Poly, k), A: make([][]*ring.Poly, k)}

	// s² in coefficient domain.
	s2 := ctx.NewPoly()
	ctx.MulPoly(sk.S, sk.S, s2)

	for j := 0; j < k; j++ {
		qj := kg.params.Moduli[j]
		digits := relinDigitCount(qj)
		rk.B[j] = make([]*ring.Poly, digits)
		rk.A[j] = make([]*ring.Poly, digits)
		for l := 0; l < digits; l++ {
			a := kg.uniformPoly()
			e := kg.noisePoly()
			// b = -(a*s + e) + 2^(w·l)·g_j·s².
			b := ctx.NewPoly()
			ctx.MulPoly(a, sk.S, b)
			ctx.Add(b, e, b)
			ctx.Neg(b, b)
			// 2^(w·l)·g_j·s² in RNS: scale s² by 2^(wl) on residue j only.
			shift := modular.Exp(2, uint64(RelinDigitBits*l), qj)
			for i := 0; i < ctx.N; i++ {
				term := modular.Mul(s2.Coeffs[j][i], shift, qj)
				b.Coeffs[j][i] = modular.Add(b.Coeffs[j][i], term, qj)
			}
			rk.B[j][l], rk.A[j][l] = b, a
		}
	}
	return rk, nil
}

// relinDigitCount returns the number of base-2^w digits needed for q.
func relinDigitCount(q uint64) int {
	bits := 0
	for v := q; v > 0; v >>= 1 {
		bits++
	}
	return (bits + RelinDigitBits - 1) / RelinDigitBits
}

func (kg *KeyGenerator) uniformPoly() *ring.Poly {
	ctx := kg.params.Context()
	p := ctx.NewPoly()
	for j, q := range kg.params.Moduli {
		copy(p.Coeffs[j], sampler.UniformPoly(kg.prng, ctx.N, q))
	}
	return p
}

func (kg *KeyGenerator) noisePoly() *ring.Poly {
	ctx := kg.params.Context()
	cn := kg.params.NoiseSampler()
	vals, _ := cn.SamplePoly(kg.prng, ctx.N)
	p := ctx.NewPoly()
	if err := ctx.SetSigned(p, vals); err != nil {
		panic(err)
	}
	return p
}
