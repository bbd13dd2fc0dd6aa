package bfv

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"reveal/internal/sampler"
)

func paperSetup(t *testing.T, seed uint64) (*Parameters, *SecretKey, *PublicKey, *Encryptor, *Decryptor) {
	t.Helper()
	params := PaperParameters()
	prng := sampler.NewXoshiro256(seed)
	kg := NewKeyGenerator(params, prng)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	enc := NewEncryptor(params, pk, prng)
	dec := NewDecryptor(params, sk)
	return params, sk, pk, enc, dec
}

func TestPaperParameters(t *testing.T) {
	p := PaperParameters()
	if p.N != 1024 || p.Moduli[0] != 132120577 || p.T != 256 {
		t.Fatalf("paper parameters wrong: %+v", p)
	}
	if p.Delta().Uint64() != 132120577/256 {
		t.Errorf("Delta=%v want %v", p.Delta(), 132120577/256)
	}
	if p.Sigma < 3.19 || p.Sigma > 3.20 {
		t.Errorf("sigma=%v want ≈3.19", p.Sigma)
	}
}

func TestNewParametersValidation(t *testing.T) {
	if _, err := NewParameters(1024, []uint64{PaperQ}, 1, 3.19, 40); err == nil {
		t.Error("t=1 should fail")
	}
	if _, err := NewParameters(1024, []uint64{PaperQ}, PaperQ, 3.19, 40); err == nil {
		t.Error("t >= Q should fail")
	}
	if _, err := NewParameters(1024, []uint64{PaperQ}, 256, 0, 40); err == nil {
		t.Error("sigma=0 should fail")
	}
	if _, err := NewParameters(1024, []uint64{PaperQ}, 256, 3.19, 1); err == nil {
		t.Error("maxDev < sigma should fail")
	}
	if _, err := NewParameters(1000, []uint64{PaperQ}, 256, 3.19, 40); err == nil {
		t.Error("non-power-of-two n should fail")
	}
}

func TestDefaultParameters(t *testing.T) {
	for _, n := range []int{1024, 2048, 4096} {
		p, err := DefaultParameters(n, 256)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if p.N != n {
			t.Errorf("n=%d: got %d", n, p.N)
		}
	}
	if _, err := DefaultParameters(512, 256); err == nil {
		t.Error("unsupported degree should fail")
	}
	// The degree-1024 default must be exactly the paper configuration.
	p, err := DefaultParameters(1024, 256)
	if err != nil {
		t.Fatal(err)
	}
	if p.Moduli[0] != PaperQ {
		t.Errorf("default 1024 modulus %d, want %d", p.Moduli[0], PaperQ)
	}
}

func TestKeyPairConsistency(t *testing.T) {
	params, sk, pk, _, _ := paperSetup(t, 101)
	if err := CheckKeyPair(params, sk, pk); err != nil {
		t.Fatal(err)
	}
	// Corrupt the public key; the check must fail.
	bad := &PublicKey{P0: pk.P0.Clone(), P1: pk.P1.Clone()}
	bad.P0.Coeffs[0][0] = (bad.P0.Coeffs[0][0] + 12345) % PaperQ
	if err := CheckKeyPair(params, sk, bad); err == nil {
		t.Error("corrupted key pair should fail the check")
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	params, _, _, enc, dec := paperSetup(t, 102)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		pt := params.NewPlaintext()
		for i := range pt.Coeffs {
			pt.Coeffs[i] = uint64(rng.Intn(int(params.T)))
		}
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
				t.Fatalf("trial %d: coeff %d decrypted to %d want %d",
					trial, i, got.Coeffs[i], pt.Coeffs[i])
			}
		}
	}
}

func TestEncryptValidation(t *testing.T) {
	params, _, _, enc, _ := paperSetup(t, 103)
	bad := params.NewPlaintext()
	bad.Coeffs[0] = params.T // not reduced
	if _, err := enc.Encrypt(bad); err == nil {
		t.Error("unreduced plaintext should fail")
	}
	if _, err := enc.Encrypt(&Plaintext{Coeffs: make([]uint64, 5)}); err == nil {
		t.Error("wrong-length plaintext should fail")
	}
}

func TestTranscriptConsistency(t *testing.T) {
	params, _, _, enc, _ := paperSetup(t, 104)
	pt := params.NewPlaintext()
	pt.Coeffs[0] = 7
	_, tr, err := enc.EncryptWithTranscript(pt)
	if err != nil {
		t.Fatal(err)
	}
	if err := SanityCheckTranscript(params, tr); err != nil {
		t.Fatal(err)
	}
	// Gaussian magnitudes must respect the clip bound and hit all branches
	// over a full polynomial with overwhelming probability.
	branches := map[sampler.Branch]int{}
	for _, b := range tr.Branch1 {
		branches[b]++
	}
	for _, b := range []sampler.Branch{sampler.BranchZero, sampler.BranchPositive, sampler.BranchNegative} {
		if branches[b] == 0 {
			t.Errorf("branch %v never taken across 1024 coefficients (p < 1e-30)", b)
		}
	}
	// Corrupted transcript must be rejected.
	tr.E1[0] = 1000
	if err := SanityCheckTranscript(params, tr); err == nil {
		t.Error("corrupted transcript should fail sanity check")
	}
}

// The ciphertext equation from the paper: with the transcript one can
// reconstruct the ciphertext exactly — this is the equation the attack
// inverts (Eq. 1-3).
func TestCiphertextEquationHolds(t *testing.T) {
	params, _, pk, enc, _ := paperSetup(t, 105)
	ctx := params.Context()
	pt := params.NewPlaintext()
	pt.Coeffs[3] = 42
	ct, tr, err := enc.EncryptWithTranscript(pt)
	if err != nil {
		t.Fatal(err)
	}
	u := ctx.NewPoly()
	if err := ctx.SetSigned(u, tr.U); err != nil {
		t.Fatal(err)
	}
	e1 := ctx.NewPoly()
	if err := ctx.SetSigned(e1, tr.E1); err != nil {
		t.Fatal(err)
	}
	e2 := ctx.NewPoly()
	if err := ctx.SetSigned(e2, tr.E2); err != nil {
		t.Fatal(err)
	}
	// c0 = Δm + p0 u + e1.
	c0 := ctx.NewPoly()
	ctx.MulPoly(pk.P0, u, c0)
	ctx.Add(c0, e1, c0)
	dm := ctx.NewPoly()
	for j := range params.Moduli {
		dj := params.DeltaMod(j)
		for i, m := range pt.Coeffs {
			dm.Coeffs[j][i] = dj * m % params.Moduli[j]
		}
	}
	ctx.Add(c0, dm, c0)
	if !reflect.DeepEqual(c0, ct.C[0]) {
		t.Error("c0 does not satisfy the encryption equation")
	}
	// c1 = p1 u + e2.
	c1 := ctx.NewPoly()
	ctx.MulPoly(pk.P1, u, c1)
	ctx.Add(c1, e2, c1)
	if !reflect.DeepEqual(c1, ct.C[1]) {
		t.Error("c1 does not satisfy the encryption equation")
	}
}

// Ciphertext-ciphertext multiplication needs a larger parameter set than
// the paper's n=1024 (which has no multiplicative budget, as in SEAL).
func TestHomomorphicMulRelin(t *testing.T) {
	params, err := DefaultParameters(2048, 16)
	if err != nil {
		t.Fatal(err)
	}
	prng := sampler.NewXoshiro256(200)
	kg := NewKeyGenerator(params, prng)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	rk, err := kg.GenRelinKey(sk)
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncryptor(params, pk, prng)
	dec := NewDecryptor(params, sk)
	ev, err := NewEvaluator(params)
	if err != nil {
		t.Fatal(err)
	}

	pa := params.NewPlaintext()
	pb := params.NewPlaintext()
	pa.Coeffs[0] = 3
	pb.Coeffs[0] = 5
	ca, _ := enc.Encrypt(pa)
	cb, _ := enc.Encrypt(pb)

	prod, err := ev.Mul(ca, cb)
	if err != nil {
		t.Fatal(err)
	}
	if prod.Degree() != 2 {
		t.Fatalf("product degree %d want 2", prod.Degree())
	}
	// Decrypting the degree-2 ciphertext directly must already work.
	got, err := dec.Decrypt(prod)
	if err != nil {
		t.Fatal(err)
	}
	if got.Coeffs[0] != 15 {
		t.Errorf("degree-2 decrypt: %d want 15", got.Coeffs[0])
	}
	// After relinearization too.
	relin, err := ev.Relinearize(prod, rk)
	if err != nil {
		t.Fatal(err)
	}
	if relin.Degree() != 1 {
		t.Fatalf("relinearized degree %d want 1", relin.Degree())
	}
	got, err = dec.Decrypt(relin)
	if err != nil {
		t.Fatal(err)
	}
	if got.Coeffs[0] != 15 {
		t.Errorf("relinearized decrypt: %d want 15", got.Coeffs[0])
	}
	budget, err := dec.NoiseBudget(relin)
	if err != nil {
		t.Fatal(err)
	}
	if budget <= 0 {
		t.Errorf("noise budget exhausted after one mul: %v bits", budget)
	}
	// MulRelin is the composition.
	mr, err := ev.MulRelin(ca, cb, rk)
	if err != nil {
		t.Fatal(err)
	}
	got, _ = dec.Decrypt(mr)
	if got.Coeffs[0] != 15 {
		t.Errorf("MulRelin decrypt: %d want 15", got.Coeffs[0])
	}
	// Polynomial (not just constant) products must be correct: (1+x)(1+x) =
	// 1 + 2x + x².
	p1 := params.NewPlaintext()
	p1.Coeffs[0], p1.Coeffs[1] = 1, 1
	c1, _ := enc.Encrypt(p1)
	sq, err := ev.MulRelin(c1, c1, rk)
	if err != nil {
		t.Fatal(err)
	}
	got, _ = dec.Decrypt(sq)
	if got.Coeffs[0] != 1 || got.Coeffs[1] != 2 || got.Coeffs[2] != 1 {
		t.Errorf("(1+x)² decrypted to %v...", got.Coeffs[:3])
	}
}

func TestMulInputValidation(t *testing.T) {
	params, _, _, enc, _ := paperSetup(t, 108)
	ev, err := NewEvaluator(params)
	if err != nil {
		t.Fatal(err)
	}
	ct, _ := enc.Encrypt(params.NewPlaintext())
	deg2 := &Ciphertext{C: append(ct.Clone().C, params.Context().NewPoly())}
	if _, err := ev.Mul(deg2, ct); err == nil {
		t.Error("Mul with degree-2 input should fail")
	}
	if _, err := ev.Relinearize(ct, nil); err == nil {
		t.Error("Relinearize of degree-1 ciphertext should fail")
	}
}

func TestNoiseBudgetFreshAndDrained(t *testing.T) {
	params, _, _, enc, dec := paperSetup(t, 109)
	ev, err := NewEvaluator(params)
	if err != nil {
		t.Fatal(err)
	}
	ct, _ := enc.Encrypt(params.NewPlaintext())
	fresh, err := dec.NoiseBudget(ct)
	if err != nil {
		t.Fatal(err)
	}
	if fresh <= 0 {
		t.Fatalf("fresh ciphertext has no budget: %v", fresh)
	}
	// Repeated additions shrink the budget monotonically (weakly).
	acc := ct
	for i := 0; i < 64; i++ {
		acc = ev.Add(acc, ct)
	}
	after, err := dec.NoiseBudget(acc)
	if err != nil {
		t.Fatal(err)
	}
	if after > fresh {
		t.Errorf("budget grew after additions: %v -> %v", fresh, after)
	}
}

func TestDecryptValidation(t *testing.T) {
	_, sk, _, _, _ := paperSetup(t, 110)
	dec := NewDecryptor(PaperParameters(), sk)
	if _, err := dec.Decrypt(nil); err == nil {
		t.Error("nil ciphertext should fail")
	}
	if _, err := dec.Decrypt(&Ciphertext{}); err == nil {
		t.Error("empty ciphertext should fail")
	}
}

// Homomorphic addition is correct for random plaintexts (property test).
func TestHomomorphicAddQuick(t *testing.T) {
	params, _, _, enc, dec := paperSetup(t, 111)
	ev, err := NewEvaluator(params)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(a, b uint8, idx uint16) bool {
		i := int(idx) % params.N
		pa := params.NewPlaintext()
		pb := params.NewPlaintext()
		pa.Coeffs[i] = uint64(a)
		pb.Coeffs[i] = uint64(b)
		ca, err := enc.Encrypt(pa)
		if err != nil {
			return false
		}
		cb, err := enc.Encrypt(pb)
		if err != nil {
			return false
		}
		got, err := dec.Decrypt(ev.Add(ca, cb))
		if err != nil {
			return false
		}
		return got.Coeffs[i] == (uint64(a)+uint64(b))%params.T
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncrypt1024(b *testing.B) {
	params := PaperParameters()
	prng := sampler.NewXoshiro256(300)
	kg := NewKeyGenerator(params, prng)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	enc := NewEncryptor(params, pk, prng)
	pt := params.NewPlaintext()
	pt.Coeffs[0] = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Encrypt(pt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecrypt1024(b *testing.B) {
	params := PaperParameters()
	prng := sampler.NewXoshiro256(301)
	kg := NewKeyGenerator(params, prng)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	enc := NewEncryptor(params, pk, prng)
	dec := NewDecryptor(params, sk)
	ct, _ := enc.Encrypt(params.NewPlaintext())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Decrypt(ct); err != nil {
			b.Fatal(err)
		}
	}
}
