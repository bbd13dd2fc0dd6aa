package bfv

// Scheme-level differential matrix over the ring parameter ladder: keygen →
// encrypt → decrypt at every ladder degree, with each ciphertext compared
// residue by residue against the encryption equation recomputed without
// any transform, and each decryption repeated without one. u and s are
// ternary, so those schoolbook products are signed sums of rotations of
// the other operand — cheap enough at n = 8192.

import (
	"fmt"
	"math/big"
	"testing"

	"reveal/internal/modular"
	"reveal/internal/ring"
	"reveal/internal/sampler"
	"reveal/internal/testkit"
)

func matrixSetup(t *testing.T, n int, seed uint64) (*Parameters, *SecretKey, *PublicKey, *Encryptor, *Decryptor) {
	t.Helper()
	params, err := DefaultParameters(n, 256)
	if err != nil {
		t.Fatalf("DefaultParameters(n=%d): %v", n, err)
	}
	prng := sampler.NewXoshiro256(seed)
	kg := NewKeyGenerator(params, prng)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	return params, sk, pk, NewEncryptor(params, pk, prng), NewDecryptor(params, sk)
}

// ternaryProduct returns a·u in Z_q[x]/(x^n+1) for a ternary u as the sum
// of ±x^k·a over u's nonzero coefficients: no transform, no products.
func ternaryProduct(a []uint64, u []int64, q uint64) []uint64 {
	n := len(a)
	neg := make([]uint64, n)
	for i, x := range a {
		neg[i] = modular.Neg(x, q)
	}
	out := make([]uint64, n)
	for k, uk := range u {
		if uk == 0 {
			continue
		}
		// x^k·a: a_i lands at i+k, negated once it wraps past x^n.
		head, wrap := a, neg
		if uk < 0 {
			head, wrap = neg, a
		}
		addInto(out[k:], head[:n-k], q)
		addInto(out[:k], wrap[n-k:], q)
	}
	return out
}

// addInto sets dst[i] += src[i] mod q.
func addInto(dst, src []uint64, q uint64) {
	for i, v := range src {
		dst[i] = modular.Add(dst[i], v, q)
	}
}

// ternaryDecrypt decrypts a two-component ciphertext without the ring
// kernels: the phase c0 + c1·s comes from ternaryProduct, the CRT from the
// math/big reference, and the rounding is round(t·x/Q) mod t.
func ternaryDecrypt(t *testing.T, params *Parameters, sk *SecretKey, ct *Ciphertext) []uint64 {
	t.Helper()
	if len(ct.C) != 2 {
		t.Fatalf("ternaryDecrypt takes 2 components, got %d", len(ct.C))
	}
	phase := make([][]uint64, len(params.Moduli))
	for j, q := range params.Moduli {
		phase[j] = ternaryProduct(ct.C[1].Coeffs[j], sk.Signed, q)
		for i, c0 := range ct.C[0].Coeffs[j] {
			phase[j][i] = modular.Add(phase[j][i], c0, q)
		}
	}
	bigQ := params.Q()
	bigT := new(big.Int).SetUint64(params.T)
	halfQ := new(big.Int).Rsh(bigQ, 1)
	out := make([]uint64, params.N)
	residues := make([]uint64, len(params.Moduli))
	num := new(big.Int)
	for i := range out {
		for j := range params.Moduli {
			residues[j] = phase[j][i]
		}
		x, err := testkit.RefCRTCompose(residues, params.Moduli)
		if err != nil {
			t.Fatal(err)
		}
		num.Mul(x, bigT)
		num.Add(num, halfQ)
		num.Quo(num, bigQ)
		num.Mod(num, bigT)
		out[i] = num.Uint64()
	}
	return out
}

// TestEncryptDecryptLadderMatrix round-trips a plaintext at every ladder
// degree: subtest "backend=rns" decrypts with Decryptor (the ring
// kernels), "backend=reference" with ternaryDecrypt (no transform).
func TestEncryptDecryptLadderMatrix(t *testing.T) {
	for _, n := range ring.LadderDegrees() {
		for _, be := range []string{"reference", "rns"} {
			t.Run(fmt.Sprintf("n=%d/backend=%s", n, be), func(t *testing.T) {
				params, sk, _, enc, dec := matrixSetup(t, n, 0xC0FFEE+uint64(n))
				pt := params.NewPlaintext()
				for i := range pt.Coeffs {
					pt.Coeffs[i] = uint64(i*31+7) % params.T
				}
				ct, err := enc.Encrypt(pt)
				if err != nil {
					t.Fatal(err)
				}
				var got []uint64
				if be == "reference" {
					got = ternaryDecrypt(t, params, sk, ct)
				} else {
					dpt, err := dec.Decrypt(ct)
					if err != nil {
						t.Fatal(err)
					}
					got = dpt.Coeffs
				}
				for i := range pt.Coeffs {
					if got[i] != pt.Coeffs[i] {
						t.Fatalf("coeff %d decrypted to %d want %d", i, got[i], pt.Coeffs[i])
					}
				}
			})
		}
	}
}

// TestCiphertextBackendEquality: every ciphertext residue must equal the
// encryption equation c0 = p0·u + e1 + Δ·m, c1 = p1·u + e2 recomputed from
// the transcript without a transform — reported with the first mismatching
// (poly, modulus, coefficient) index.
func TestCiphertextBackendEquality(t *testing.T) {
	for _, n := range ring.LadderDegrees() {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			params, _, pk, enc, _ := matrixSetup(t, n, 0xBEEF+uint64(n))
			pt := params.NewPlaintext()
			for i := range pt.Coeffs {
				pt.Coeffs[i] = uint64(i) % params.T
			}
			ct, tr, err := enc.EncryptWithTranscript(pt)
			if err != nil {
				t.Fatal(err)
			}
			if len(ct.C) != 2 {
				t.Fatalf("ciphertext size %d, want 2", len(ct.C))
			}
			for j, q := range params.Moduli {
				c0 := ternaryProduct(pk.P0.Coeffs[j], tr.U, q)
				c1 := ternaryProduct(pk.P1.Coeffs[j], tr.U, q)
				for i := range c0 {
					dm := modular.Mul(params.DeltaMod(j), pt.Coeffs[i], q)
					c0[i] = modular.Add(modular.Add(c0[i], modular.FromCentered(tr.E1[i], q), q), dm, q)
					c1[i] = modular.Add(c1[i], modular.FromCentered(tr.E2[i], q), q)
				}
				for p, want := range [][]uint64{c0, c1} {
					for i, w := range want {
						if got := ct.C[p].Coeffs[j][i]; got != w {
							t.Fatalf("first mismatch at poly %d modulus %d coeff %d: %d, recomputed %d", p, j, i, got, w)
						}
					}
				}
			}
		})
	}
}

func TestResolveParamSet(t *testing.T) {
	for _, name := range []string{"", "paper", "n1024"} {
		p, err := ResolveParamSet(name)
		if err != nil {
			t.Fatalf("ResolveParamSet(%q): %v", name, err)
		}
		if p.N != 1024 || p.Moduli[0] != PaperQ {
			t.Fatalf("ResolveParamSet(%q) is not the paper configuration", name)
		}
	}
	for _, tc := range []struct {
		name  string
		n     int
		chain int
	}{{"n2048", 2048, 1}, {"n4096", 4096, 3}, {"n8192", 8192, 5}} {
		p, err := ResolveParamSet(tc.name)
		if err != nil {
			t.Fatalf("ResolveParamSet(%q): %v", tc.name, err)
		}
		if p.N != tc.n || len(p.Moduli) != tc.chain {
			t.Fatalf("ResolveParamSet(%q): n=%d chain=%d", tc.name, p.N, len(p.Moduli))
		}
	}
	for _, bad := range []string{"n512", "n2048x", "huge", "n"} {
		if _, err := ResolveParamSet(bad); err == nil {
			t.Fatalf("ResolveParamSet(%q) accepted", bad)
		}
	}
	names := ParamSetNames()
	if len(names) != 4 || names[0] != "n1024" || names[3] != "n8192" {
		t.Fatalf("ParamSetNames() = %v", names)
	}
}
