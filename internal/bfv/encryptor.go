package bfv

import (
	"reveal/internal/modular"
	"reveal/internal/ring"
	"reveal/internal/sampler"
)

// EncryptionTranscript records the secret randomness consumed by one
// encryption. The side-channel pipeline uses it as ground truth for
// template profiling and for verifying recovered values; it is never used
// by the attack itself.
type EncryptionTranscript struct {
	// U is the ternary encryption sample u (centered).
	U []int64
	// E1, E2 are the Gaussian error polynomials (centered), E1 entering c0
	// and E2 entering c1.
	E1, E2 []int64
	// Meta1, Meta2 describe the time-variant part of each Gaussian draw.
	Meta1, Meta2 []sampler.SampleMeta
	// Branch1, Branch2 are the sign-assignment branches taken per
	// coefficient (the paper's V1 ground truth).
	Branch1, Branch2 []sampler.Branch
}

// Encryptor implements SEAL v3.2's BFV encryption:
//
//	(c0, c1) = ([Δ·m + p0·u + e1]_Q, [p1·u + e2]_Q)
//
// with u ← R_2 and e1, e2 ← χ via the vulnerable set_poly_coeffs_normal.
type Encryptor struct {
	params *Parameters
	pk     *PublicKey
	prng   sampler.PRNG
	noise  *sampler.ClippedNormal
}

// NewEncryptor builds an encryptor for the given public key and PRNG.
func NewEncryptor(params *Parameters, pk *PublicKey, prng sampler.PRNG) *Encryptor {
	return &Encryptor{params: params, pk: pk, prng: prng, noise: params.NoiseSampler()}
}

// Encrypt encrypts pt, discarding the transcript.
func (e *Encryptor) Encrypt(pt *Plaintext) (*Ciphertext, error) {
	ct, _, err := e.EncryptWithTranscript(pt)
	return ct, err
}

// EncryptWithTranscript encrypts pt and returns the randomness transcript.
func (e *Encryptor) EncryptWithTranscript(pt *Plaintext) (*Ciphertext, *EncryptionTranscript, error) {
	if err := e.params.Validate(pt); err != nil {
		return nil, nil, err
	}
	ctx := e.params.Context()
	n := ctx.N

	tr := &EncryptionTranscript{}

	// u <- R_2.
	tr.U = sampler.TernaryPoly(e.prng, n)
	u := ctx.NewPoly()
	if err := ctx.SetSigned(u, tr.U); err != nil {
		return nil, nil, err
	}

	// e1, e2 <- chi via the vulnerable code path.
	e1 := ctx.NewPoly()
	tr.E1, tr.Meta1, tr.Branch1 = e.setPolyCoeffsNormal(e1)
	e2 := ctx.NewPoly()
	tr.E2, tr.Meta2, tr.Branch2 = e.setPolyCoeffsNormal(e2)

	// c0 = Δ·m + p0·u + e1, c1 = p1·u + e2.
	c0 := ctx.NewPoly()
	ctx.MulPoly(e.pk.P0, u, c0)
	ctx.Add(c0, e1, c0)
	deltaM := e.scaledPlaintext(pt)
	ctx.Add(c0, deltaM, c0)

	c1 := ctx.NewPoly()
	ctx.MulPoly(e.pk.P1, u, c1)
	ctx.Add(c1, e2, c1)

	return &Ciphertext{C: []*ring.Poly{c0, c1}}, tr, nil
}

// setPolyCoeffsNormal reproduces SEAL v3.2's Encryptor::set_poly_coeffs_normal
// (Fig. 2 of the paper): for each coefficient, draw from the clipped normal
// distribution, then assign via the sign-dependent if/elseif/else — the
// three vulnerabilities V1 (branch), V2 (value store), V3 (negation) live
// here.
func (e *Encryptor) setPolyCoeffsNormal(poly *ring.Poly) ([]int64, []sampler.SampleMeta, []sampler.Branch) {
	ctx := e.params.Context()
	n := ctx.N
	values := make([]int64, n)
	metas := make([]sampler.SampleMeta, n)
	branches := make([]sampler.Branch, n)
	for i := 0; i < n; i++ {
		noise, meta := e.noise.Sample(e.prng)
		values[i], metas[i] = noise, meta
		residues, br := sampler.AssignSigned(noise, e.params.Moduli)
		branches[i] = br
		for j := range e.params.Moduli {
			poly.Coeffs[j][i] = residues[j]
		}
	}
	poly.InNTT = false
	return values, metas, branches
}

// scaledPlaintext returns Δ·m as a ring element.
func (e *Encryptor) scaledPlaintext(pt *Plaintext) *ring.Poly {
	ctx := e.params.Context()
	p := ctx.NewPoly()
	for j, q := range e.params.Moduli {
		dj := e.params.DeltaMod(j)
		for i, m := range pt.Coeffs {
			p.Coeffs[j][i] = modular.Mul(dj, m, q)
		}
	}
	return p
}
