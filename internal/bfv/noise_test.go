package bfv

import (
	"math/rand"
	"testing"

	"reveal/internal/sampler"
)

func noiseSetup(t *testing.T, seed uint64) (*Parameters, *Encryptor, *Decryptor, *Evaluator) {
	t.Helper()
	params := PaperParameters()
	prng := sampler.NewXoshiro256(seed)
	kg := NewKeyGenerator(params, prng)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	enc := NewEncryptor(params, pk, prng)
	dec := NewDecryptor(params, sk)
	ev, err := NewEvaluator(params)
	if err != nil {
		t.Fatal(err)
	}
	return params, enc, dec, ev
}

func TestFreshNoiseWithinBound(t *testing.T) {
	params, enc, dec, _ := noiseSetup(t, 800)
	bound := FreshNoiseBound(params)
	if !DecryptableBound(params, bound) {
		t.Fatal("fresh ciphertexts must decrypt at paper parameters")
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		pt := params.NewPlaintext()
		for i := range pt.Coeffs {
			pt.Coeffs[i] = uint64(rng.Intn(int(params.T)))
		}
		ct, err := enc.Encrypt(pt)
		if err != nil {
			t.Fatal(err)
		}
		if err := CheckNoiseBound(dec, ct, bound); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestAddNoiseWithinBound(t *testing.T) {
	params, enc, dec, ev := noiseSetup(t, 801)
	pa := params.NewPlaintext()
	pa.Coeffs[0] = 3
	ca, _ := enc.Encrypt(pa)
	cb, _ := enc.Encrypt(pa)
	sum := ev.Add(ca, cb)
	fresh := FreshNoiseBound(params)
	bound := AddNoiseBound(params, fresh, fresh)
	if err := CheckNoiseBound(dec, sum, bound); err != nil {
		t.Fatal(err)
	}
	// One addition is guaranteed by the worst-case analysis at these tiny
	// parameters (Δ/2 ≈ 2.6e5, fresh bound ≈ 8.6e4).
	if !DecryptableBound(params, bound) {
		t.Error("one addition must be guaranteed decryptable")
	}
	// Repeated additions: the bound keeps tracking the measured noise, and
	// — being worst-case — gives up long before actual decryption fails.
	acc := ca
	accBound := fresh
	for i := 0; i < 32; i++ {
		acc = ev.Add(acc, cb)
		accBound = AddNoiseBound(params, accBound, fresh)
	}
	if err := CheckNoiseBound(dec, acc, accBound); err != nil {
		t.Fatal(err)
	}
	if DecryptableBound(params, accBound) {
		t.Log("note: worst-case bound unexpectedly still under Δ/2")
	}
	// Reality: decryption still works (average-case noise ≪ worst case).
	got, err := dec.Decrypt(acc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Coeffs[0] != (3*33)%params.T {
		t.Errorf("decryption failed after 32 additions: %d", got.Coeffs[0])
	}
}

func TestBudgetBitsConsistentWithDecryptor(t *testing.T) {
	params, enc, dec, _ := noiseSetup(t, 803)
	pt := params.NewPlaintext()
	ct, _ := enc.Encrypt(pt)
	measuredBudget, err := dec.NoiseBudget(ct)
	if err != nil {
		t.Fatal(err)
	}
	// The fresh bound in Decryptor.NoiseBudget's convention, log2(Δ/(2·bound)).
	boundBudget := float64(params.Delta().BitLen()-FreshNoiseBound(params).BitLen()) - 1
	// The analytic bound is pessimistic: its budget must not exceed the
	// measured one (much), and both are positive here.
	if boundBudget > measuredBudget+1 {
		t.Errorf("analytic budget %.1f exceeds measured %.1f", boundBudget, measuredBudget)
	}
	if measuredBudget <= 0 {
		t.Error("fresh budget should be positive")
	}
}

func TestMeasureNoiseMatchesBudget(t *testing.T) {
	params, enc, dec, _ := noiseSetup(t, 804)
	pt := params.NewPlaintext()
	ct, _ := enc.Encrypt(pt)
	norm, err := dec.MeasureNoise(ct)
	if err != nil {
		t.Fatal(err)
	}
	if norm.Sign() <= 0 {
		t.Error("fresh ciphertext noise should be nonzero")
	}
	delta := params.Delta()
	delta.Rsh(delta, 1)
	if norm.Cmp(delta) >= 0 {
		t.Error("fresh noise exceeds Δ/2 — decryption would fail")
	}
}
