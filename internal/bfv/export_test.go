package bfv

import (
	"fmt"
	"math/big"

	"reveal/internal/sampler"
)

// Test oracles: key-pair and transcript consistency, the measured noise of
// a ciphertext, and the analytic worst-case noise bounds that the
// property tests check the encryptor and evaluator against.

// The analytic noise oracle: worst-case infinity-norm bounds for the noise
// term v = [c0 + c1·s]_Q − Δ·m, with ternary secrets and u and errors
// clipped at B = MaxDeviation+1. Decryption is guaranteed while ‖v‖∞ < Δ/2.

// FreshNoiseBound bounds a fresh encryption, v = −e_pk·u + e1 + e2·s:
// ‖v‖∞ ≤ B·(1 + 2n), plus the Δ-rounding slack |Δ·m − (Q/t)·m| ≤ t.
func FreshNoiseBound(params *Parameters) *big.Int {
	b := big.NewInt(int64(2*params.N + 1))
	b.Mul(b, big.NewInt(int64(params.MaxDeviation)+1))
	return b.Add(b, new(big.Int).SetUint64(params.T))
}

// AddNoiseBound bounds the sum of two ciphertexts: both noises plus the
// rounding slack of the summed plaintext.
func AddNoiseBound(params *Parameters, a, b *big.Int) *big.Int {
	s := new(big.Int).Add(a, b)
	return s.Add(s, new(big.Int).SetUint64(params.T))
}

// DecryptableBound reports whether a bound guarantees correct decryption.
func DecryptableBound(params *Parameters, bound *big.Int) bool {
	half := params.Delta()
	return bound.Cmp(half.Rsh(half, 1)) < 0
}

// CheckNoiseBound fails unless the measured noise of ct respects bound.
func CheckNoiseBound(dec *Decryptor, ct *Ciphertext, bound *big.Int) error {
	measured, err := dec.MeasureNoise(ct)
	if err != nil {
		return err
	}
	if measured.Cmp(bound) > 0 {
		return fmt.Errorf("measured noise %v exceeds analytic bound %v", measured, bound)
	}
	return nil
}

// CheckKeyPair verifies pk is consistent with sk: p0 + p1·s must be a
// small-norm polynomial (the key-generation error), centered over the full
// modulus Q.
func CheckKeyPair(params *Parameters, sk *SecretKey, pk *PublicKey) error {
	ctx := params.Context()
	t := ctx.NewPoly()
	ctx.MulPoly(pk.P1, sk.S, t)
	ctx.Add(pk.P0, t, t)
	bigQ := ctx.BigQ()
	half := new(big.Int).Rsh(bigQ, 1)
	bound := big.NewInt(int64(params.MaxDeviation) + 1)
	v := new(big.Int)
	for i := 0; i < params.N; i++ {
		ctx.ComposeCRT(v, t, i)
		if v.Cmp(half) > 0 {
			v.Sub(bigQ, v)
		}
		if v.Cmp(bound) > 0 {
			return fmt.Errorf("bfv: key pair inconsistent: residual coefficient %d has norm %v", i, v)
		}
	}
	return nil
}

// SanityCheckTranscript verifies internal consistency of a transcript
// against the parameter set (bounds and branch agreement).
func SanityCheckTranscript(params *Parameters, tr *EncryptionTranscript) error {
	if len(tr.E1) != params.N || len(tr.E2) != params.N || len(tr.U) != params.N {
		return fmt.Errorf("bfv: transcript length mismatch")
	}
	max := int64(params.MaxDeviation) + 1
	check := func(vals []int64, branches []sampler.Branch, name string) error {
		for i, v := range vals {
			if v > max || v < -max {
				return fmt.Errorf("bfv: %s[%d]=%d exceeds clip bound", name, i, v)
			}
			var want sampler.Branch
			switch {
			case v > 0:
				want = sampler.BranchPositive
			case v < 0:
				want = sampler.BranchNegative
			default:
				want = sampler.BranchZero
			}
			if branches[i] != want {
				return fmt.Errorf("bfv: %s[%d] branch %v inconsistent with value %d", name, i, branches[i], v)
			}
		}
		return nil
	}
	if err := check(tr.E1, tr.Branch1, "e1"); err != nil {
		return err
	}
	if err := check(tr.E2, tr.Branch2, "e2"); err != nil {
		return err
	}
	for i, v := range tr.U {
		if v < -1 || v > 1 {
			return fmt.Errorf("bfv: u[%d]=%d not ternary", i, v)
		}
	}
	return nil
}

// MeasureNoise returns the actual ‖v‖∞ of a ciphertext (requires the
// secret key; a test/diagnostic facility mirroring SEAL's invariant-noise
// inspector).
func (d *Decryptor) MeasureNoise(ct *Ciphertext) (*big.Int, error) {
	pt, err := d.Decrypt(ct)
	if err != nil {
		return nil, err
	}
	ctx := d.params.Context()
	phase := d.dotWithSecret(ct)
	bigQ := ctx.BigQ()
	halfQ := new(big.Int).Rsh(bigQ, 1)
	delta := d.params.Delta()

	max := new(big.Int)
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
		if v.Cmp(max) > 0 {
			max.Set(v)
		}
	}
	return max, nil
}
