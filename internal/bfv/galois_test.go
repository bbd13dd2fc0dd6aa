package bfv

import (
	"testing"

	"reveal/internal/modular"
	"reveal/internal/sampler"
)

// Plaintext-side reference automorphism mod t.
func automorphPlain(params *Parameters, pt *Plaintext, g uint64) *Plaintext {
	out := params.NewPlaintext()
	twoN := uint64(2 * params.N)
	for i, v := range pt.Coeffs {
		e := (uint64(i) * g) % twoN
		if e < uint64(params.N) {
			out.Coeffs[e] = modular.Add(out.Coeffs[e], v, params.T)
		} else {
			out.Coeffs[e-uint64(params.N)] = modular.Sub(out.Coeffs[e-uint64(params.N)], v, params.T)
		}
	}
	return out
}

// galoisParams returns n=1024 with a 50-bit modulus: key switching adds
// ≈2^33 noise, so the paper's 27-bit q has no room for it (as in SEAL,
// where n=1024 supports no key-switched operations either).
func galoisParams(t *testing.T, plainT uint64) *Parameters {
	t.Helper()
	primes, err := modular.GeneratePrimes(50, 2048, 1)
	if err != nil {
		t.Fatal(err)
	}
	params, err := NewParameters(1024, primes, plainT,
		sampler.DefaultSigma, sampler.DefaultMaxDeviation)
	if err != nil {
		t.Fatal(err)
	}
	return params
}

func TestApplyGaloisMatchesPlainAutomorphism(t *testing.T) {
	params := galoisParams(t, 256)
	prng := sampler.NewXoshiro256(700)
	kg := NewKeyGenerator(params, prng)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	enc := NewEncryptor(params, pk, prng)
	dec := NewDecryptor(params, sk)
	ev, err := NewEvaluator(params)
	if err != nil {
		t.Fatal(err)
	}

	pt := params.NewPlaintext()
	pt.Coeffs[0] = 5
	pt.Coeffs[1] = 7
	pt.Coeffs[500] = 123

	for _, g := range []uint64{3, 9, params.GaloisElementForRowSwap()} {
		gk, err := kg.GenGaloisKey(sk, g)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := enc.Encrypt(pt)
		if err != nil {
			t.Fatal(err)
		}
		rotated, err := ev.ApplyGalois(ct, gk)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.Decrypt(rotated)
		if err != nil {
			t.Fatal(err)
		}
		want := automorphPlain(params, pt, g)
		for i := range want.Coeffs {
			if got.Coeffs[i] != want.Coeffs[i] {
				t.Fatalf("g=%d: coeff %d: got %d want %d", g, i, got.Coeffs[i], want.Coeffs[i])
			}
		}
	}
}

// Batched slot rotation: with t ≡ 1 mod 2n, applying g = 3 permutes the
// slot vector. The decoded result must be a permutation of the input and
// equal to encoding-side automorphism.
func TestGaloisRotatesBatchedSlots(t *testing.T) {
	params := galoisParams(t, 12289)
	prng := sampler.NewXoshiro256(701)
	kg := NewKeyGenerator(params, prng)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	enc := NewEncryptor(params, pk, prng)
	dec := NewDecryptor(params, sk)
	ev, err := NewEvaluator(params)
	if err != nil {
		t.Fatal(err)
	}
	be, err := NewBatchEncoder(params)
	if err != nil {
		t.Fatal(err)
	}

	slots := make([]uint64, params.N)
	for i := range slots {
		slots[i] = uint64(i)
	}
	pt, err := be.Encode(slots)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := enc.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	g := params.GaloisElementForColumnRotation(1)
	gk, err := kg.GenGaloisKey(sk, g)
	if err != nil {
		t.Fatal(err)
	}
	rotated, err := ev.ApplyGalois(ct, gk)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dec.Decrypt(rotated)
	if err != nil {
		t.Fatal(err)
	}
	gotSlots, err := be.Decode(got)
	if err != nil {
		t.Fatal(err)
	}
	// The rotated slot vector must be a permutation of the input.
	seen := map[uint64]int{}
	for _, v := range gotSlots {
		seen[v]++
	}
	for _, v := range slots {
		if seen[v] != 1 {
			t.Fatalf("slot value %d appears %d times after rotation", v, seen[v])
		}
	}
	// And it must differ from the identity.
	same := true
	for i := range slots {
		if gotSlots[i] != slots[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("rotation was the identity")
	}
}

func TestGaloisValidation(t *testing.T) {
	params := PaperParameters()
	prng := sampler.NewXoshiro256(702)
	kg := NewKeyGenerator(params, prng)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	enc := NewEncryptor(params, pk, prng)
	ev, err := NewEvaluator(params)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kg.GenGaloisKey(sk, 4); err == nil {
		t.Error("even Galois element should fail")
	}
	ct, _ := enc.Encrypt(params.NewPlaintext())
	if _, err := ev.ApplyGalois(ct, nil); err == nil {
		t.Error("nil key should fail")
	}
	deg2 := &Ciphertext{C: append(ct.Clone().C, params.Context().NewPoly())}
	gk, err := kg.GenGaloisKey(sk, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.ApplyGalois(deg2, gk); err == nil {
		t.Error("degree-2 input should fail")
	}
}

func TestGaloisElementHelpers(t *testing.T) {
	params := PaperParameters()
	if params.GaloisElementForRowSwap() != 2047 {
		t.Errorf("row swap element %d", params.GaloisElementForRowSwap())
	}
	if params.GaloisElementForColumnRotation(0) != 1 {
		t.Error("rotation by 0 should be identity element")
	}
	if params.GaloisElementForColumnRotation(1) != 3 {
		t.Error("rotation by 1 should be 3")
	}
	// Negative rotations wrap.
	g := params.GaloisElementForColumnRotation(-1)
	if g%2 == 0 || g == 0 {
		t.Errorf("negative rotation element %d invalid", g)
	}
}
