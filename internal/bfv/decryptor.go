package bfv

import (
	"fmt"
	"math/big"

	"reveal/internal/ring"
)

// Decryptor recovers plaintexts: m = [round(t/Q · [c0 + c1·s + c2·s² ...]_Q)]_t.
type Decryptor struct {
	params *Parameters
	sk     *SecretKey
}

// NewDecryptor builds a decryptor for the given secret key.
func NewDecryptor(params *Parameters, sk *SecretKey) *Decryptor {
	return &Decryptor{params: params, sk: sk}
}

// dotWithSecret returns [sum_i c_i s^i]_Q in coefficient representation.
func (d *Decryptor) dotWithSecret(ct *Ciphertext) *ring.Poly {
	ctx := d.params.Context()
	acc := ct.C[0].Clone()
	sPow := d.sk.S.Clone()
	tmp := ctx.NewPoly()
	for i := 1; i < len(ct.C); i++ {
		ctx.MulPoly(ct.C[i], sPow, tmp)
		ctx.Add(acc, tmp, acc)
		if i+1 < len(ct.C) {
			next := ctx.NewPoly()
			ctx.MulPoly(sPow, d.sk.S, next)
			sPow = next
		}
	}
	return acc
}

// Decrypt decrypts ct.
func (d *Decryptor) Decrypt(ct *Ciphertext) (*Plaintext, error) {
	if ct == nil || len(ct.C) < 2 {
		return nil, fmt.Errorf("bfv: ciphertext must have at least 2 components")
	}
	return d.params.RoundPhase(d.dotWithSecret(ct)), nil
}

// RoundPhase returns the plaintext [round(t/Q · x)]_t of a phase
// x = Δ·m + e in coefficient representation, rounding half up: the last
// step of decryption, which removes any error with ‖e‖∞ < Δ/2.
func (p *Parameters) RoundPhase(phase *ring.Poly) *Plaintext {
	ctx := p.Context()
	pt := p.NewPlaintext()
	bigQ := ctx.BigQ()
	bigT := new(big.Int).SetUint64(p.T)
	halfQ := new(big.Int).Rsh(bigQ, 1)
	var x, num, rem big.Int
	for i := range pt.Coeffs {
		ctx.ComposeCRT(&x, phase, i)
		num.Mul(&x, bigT)
		num.Add(&num, halfQ)
		num.QuoRem(&num, bigQ, &rem)
		num.QuoRem(&num, bigT, &rem)
		pt.Coeffs[i] = rem.Uint64()
	}
	return pt
}

// NoiseBudget returns the remaining noise budget in bits: log2(Δ / (2·‖v‖∞))
// where v = [c0 + c1 s + …]_Q − Δ·m (centered). A non-positive budget means
// decryption is no longer guaranteed correct.
func (d *Decryptor) NoiseBudget(ct *Ciphertext) (float64, error) {
	pt, err := d.Decrypt(ct)
	if err != nil {
		return 0, err
	}
	ctx := d.params.Context()
	phase := d.dotWithSecret(ct)
	bigQ := ctx.BigQ()
	halfQ := new(big.Int).Rsh(bigQ, 1)
	delta := d.params.Delta()

	maxNoise := new(big.Int)
	v := new(big.Int)
	dm := new(big.Int)
	x := new(big.Int)
	for i := 0; i < d.params.N; i++ {
		ctx.ComposeCRT(x, phase, i)
		dm.SetUint64(pt.Coeffs[i])
		dm.Mul(dm, delta)
		v.Sub(x, dm)
		v.Mod(v, bigQ)
		if v.Cmp(halfQ) > 0 {
			v.Sub(bigQ, v)
		}
		if v.Cmp(maxNoise) > 0 {
			maxNoise.Set(v)
		}
	}
	if maxNoise.Sign() == 0 {
		maxNoise.SetUint64(1)
	}
	// budget = log2(delta) - 1 - log2(maxNoise)
	budget := float64(delta.BitLen()-maxNoise.BitLen()) - 1
	return budget, nil
}
