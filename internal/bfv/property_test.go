package bfv_test

// Property-based invariant tests for the BFV scheme: encrypt→decrypt is
// the identity while measured noise stays within the estimator's bound,
// and every encryption transcript respects the sampler's clipping bound.

import (
	"math"
	"math/big"
	"testing"

	"reveal/internal/bfv"
	"reveal/internal/sampler"
	"reveal/internal/testkit"
)

func TestEncryptDecryptRoundTrip(t *testing.T) {
	params := smallTestParams(t)
	for _, seed := range []uint64{1, 2, 3, 1001, 0xDEAD} {
		prng := sampler.NewXoshiro256(seed)
		kg := bfv.NewKeyGenerator(params, prng)
		sk := kg.GenSecretKey()
		pk := kg.GenPublicKey(sk)
		if err := bfv.CheckKeyPair(params, sk, pk); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		enc := bfv.NewEncryptor(params, pk, prng)
		dec := bfv.NewDecryptor(params, sk)
		r := testkit.NewRNG(seed ^ 0xF00D)
		for iter := 0; iter < 4; iter++ {
			pt := params.NewPlaintext()
			copy(pt.Coeffs, r.Residues(params.N, params.T))
			ct, err := enc.Encrypt(pt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := dec.Decrypt(ct)
			if err != nil {
				t.Fatal(err)
			}
			for i := range pt.Coeffs {
				if got.Coeffs[i] != pt.Coeffs[i] {
					t.Fatalf("seed %d iter %d coeff %d: decrypt %d != %d",
						seed, iter, i, got.Coeffs[i], pt.Coeffs[i])
				}
			}
		}
	}
}

// TestFreshNoiseWithinEstimatorBound: the measured infinity norm of the
// decryption noise must stay below the analytic fresh bound, and the
// budget must be positive — otherwise the encryptor adds more noise than
// the BFV analysis allows and every "can we still decrypt" decision is
// unsound.
func TestFreshNoiseWithinEstimatorBound(t *testing.T) {
	params := smallTestParams(t)
	fresh := bfv.FreshNoiseBound(params)
	for _, seed := range []uint64{7, 8, 9, 10} {
		prng := sampler.NewXoshiro256(seed)
		kg := bfv.NewKeyGenerator(params, prng)
		sk := kg.GenSecretKey()
		pk := kg.GenPublicKey(sk)
		enc := bfv.NewEncryptor(params, pk, prng)
		dec := bfv.NewDecryptor(params, sk)
		ct, err := enc.Encrypt(params.NewPlaintext())
		if err != nil {
			t.Fatal(err)
		}
		if err := bfv.CheckNoiseBound(dec, ct, fresh); err != nil {
			t.Fatalf("seed %d: fresh ciphertext exceeds estimator bound: %v", seed, err)
		}
		budget, err := dec.NoiseBudget(ct)
		if err != nil {
			t.Fatal(err)
		}
		if budget <= 0 {
			t.Fatalf("seed %d: fresh noise budget %.2f bits, want > 0", seed, budget)
		}
		noise, err := dec.MeasureNoise(ct)
		if err != nil {
			t.Fatal(err)
		}
		if noise.Sign() < 0 {
			t.Fatalf("seed %d: negative noise norm %v", seed, noise)
		}
		// Δ/2 is the hard decryption-correctness threshold.
		half := new(big.Int).Rsh(params.Delta(), 1)
		if noise.Cmp(half) >= 0 {
			t.Fatalf("seed %d: noise %v >= Δ/2 = %v", seed, noise, half)
		}
	}
}

// TestTranscriptRespectsClipping: every Gaussian draw recorded in the
// transcript must obey the sampler's ±MaxDeviation clipping and the branch
// labels must match the sign of the stored value — the ground truth the
// paper's V1 classifier is trained on.
func TestTranscriptRespectsClipping(t *testing.T) {
	params := smallTestParams(t)
	prng := sampler.NewXoshiro256(123)
	kg := bfv.NewKeyGenerator(params, prng)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	enc := bfv.NewEncryptor(params, pk, prng)
	maxVal := int64(math.Round(params.NoiseSampler().MaxDeviation))

	for iter := 0; iter < 10; iter++ {
		pt := params.NewPlaintext()
		_, tr, err := enc.EncryptWithTranscript(pt)
		if err != nil {
			t.Fatal(err)
		}
		if err := bfv.SanityCheckTranscript(params, tr); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		for i := range tr.E1 {
			for _, e := range []int64{tr.E1[i], tr.E2[i]} {
				if e < -maxVal || e > maxVal {
					t.Fatalf("iter %d coeff %d: noise %d outside ±%d", iter, i, e, maxVal)
				}
			}
			if u := tr.U[i]; u < -1 || u > 1 {
				t.Fatalf("iter %d coeff %d: ternary sample %d", iter, i, u)
			}
		}
	}
}

// TestHomomorphicAddProperty: Dec(Enc(m0) + Enc(m1)) == m0 + m1 mod t for
// random plaintext pairs.
func TestHomomorphicAddProperty(t *testing.T) {
	params := smallTestParams(t)
	prng := sampler.NewXoshiro256(55)
	kg := bfv.NewKeyGenerator(params, prng)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	enc := bfv.NewEncryptor(params, pk, prng)
	dec := bfv.NewDecryptor(params, sk)
	ev, err := bfv.NewEvaluator(params)
	if err != nil {
		t.Fatal(err)
	}
	r := testkit.NewRNG(56)
	for iter := 0; iter < 5; iter++ {
		pt0, pt1 := params.NewPlaintext(), params.NewPlaintext()
		copy(pt0.Coeffs, r.Residues(params.N, params.T))
		copy(pt1.Coeffs, r.Residues(params.N, params.T))
		ct0, err := enc.Encrypt(pt0)
		if err != nil {
			t.Fatal(err)
		}
		ct1, err := enc.Encrypt(pt1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.Decrypt(ev.Add(ct0, ct1))
		if err != nil {
			t.Fatal(err)
		}
		for i := range got.Coeffs {
			want := (pt0.Coeffs[i] + pt1.Coeffs[i]) % params.T
			if got.Coeffs[i] != want {
				t.Fatalf("iter %d coeff %d: %d, want %d", iter, i, got.Coeffs[i], want)
			}
		}
	}
}
