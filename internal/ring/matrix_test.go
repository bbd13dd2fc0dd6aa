package ring_test

// Differential test matrix: Context's lazy-reduction kernels against the
// strict-reduction oracle (ring.Oracle), compared coefficient by
// coefficient — a mismatch reports the first differing (modulus,
// coefficient) index. The suites that check the arithmetic against
// math/big, the ring axioms and the golden vectors run once on each:
// subtest "backend=rns" on Context, "backend=reference" on the oracle, so
// a golden file can never capture a transform only one of them computes.

import (
	"fmt"
	"testing"

	"reveal/internal/ring"
	"reveal/internal/testkit"
)

// arith is the ring arithmetic a suite exercises: *ring.Context, whose
// kernels the programs run, or *ring.Oracle.
type arith interface {
	Add(a, b, out *ring.Poly)
	Sub(a, b, out *ring.Poly)
	Neg(a, out *ring.Poly)
	MulCoeffwise(a, b, out *ring.Poly)
	NTT(p *ring.Poly)
	INTT(p *ring.Poly)
	MulPoly(a, b, out *ring.Poly)
}

// forEachBackend runs fn once on the oracle ("reference") and once on
// Context ("rns"), each as a subtest.
func forEachBackend(t *testing.T, fn func(t *testing.T, be string)) {
	t.Helper()
	for _, name := range []string{"reference", "rns"} {
		t.Run("backend="+name, func(t *testing.T) { fn(t, name) })
	}
}

// arithOn returns the arithmetic the named subtest runs over ctx.
func arithOn(ctx *ring.Context, be string) arith {
	if be == "reference" {
		return ring.NewOracle(ctx)
	}
	return ctx
}

// newCtxOn builds a context for (n, moduli) and the arithmetic the named
// subtest runs over it.
func newCtxOn(t testing.TB, be string, n int, moduli []uint64) (*ring.Context, arith) {
	t.Helper()
	ctx, err := ring.NewContext(n, moduli)
	if err != nil {
		t.Fatalf("NewContext(%d, %v): %v", n, moduli, err)
	}
	return ctx, arithOn(ctx, be)
}

// firstMismatch returns the first (modulus, coefficient) index where two
// polynomials differ, or ok=true when they are identical.
func firstMismatch(a, b *ring.Poly) (j, i int, ok bool) {
	for j := range a.Coeffs {
		for i := range a.Coeffs[j] {
			if a.Coeffs[j][i] != b.Coeffs[j][i] {
				return j, i, false
			}
		}
	}
	return 0, 0, true
}

// TestCrossBackendByteEquality is the core of the matrix: Context and the
// oracle run the same seeded workload through every arithmetic operation
// and every output must be byte-identical (the canonical-residue contract
// the selftest digest and the golden vectors rest on). Ladder primes with
// p ≡ 1 mod 2^14 are also NTT-friendly at the small degrees, so the real
// SEAL moduli are exercised cheaply there; the ladder cases then run each
// parameter set at its full degree.
func TestCrossBackendByteEquality(t *testing.T) {
	type matrixCase struct {
		name   string
		n      int
		moduli []uint64
	}
	cases := []matrixCase{
		{"n64/legacy-q", 64, []uint64{ring.LegacyQ}},
		{"n32/two-primes", 32, []uint64{12289, 257}},
		{"n128/ladder-n4096-chain", 128, ring.ParamsN4096().Moduli},
		{"n256/ladder-n8192-chain", 256, ring.ParamsN8192().Moduli},
		{"n64/54bit", 64, ring.ParamsN2048().Moduli},
	}
	for _, n := range ring.LadderDegrees() {
		p, err := ring.LadderParams(n)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, matrixCase{fmt.Sprintf("n%d/ladder", n), n, p.Moduli})
	}
	type op struct {
		name string
		run  func(ar arith, ctx *ring.Context, a, b *ring.Poly) *ring.Poly
	}
	ops := []op{
		{"Add", func(ar arith, ctx *ring.Context, a, b *ring.Poly) *ring.Poly {
			out := ctx.NewPoly()
			ar.Add(a, b, out)
			return out
		}},
		{"Sub", func(ar arith, ctx *ring.Context, a, b *ring.Poly) *ring.Poly {
			out := ctx.NewPoly()
			ar.Sub(a, b, out)
			return out
		}},
		{"Neg", func(ar arith, ctx *ring.Context, a, _ *ring.Poly) *ring.Poly {
			out := ctx.NewPoly()
			ar.Neg(a, out)
			return out
		}},
		{"MulCoeffwise", func(ar arith, ctx *ring.Context, a, b *ring.Poly) *ring.Poly {
			out := ctx.NewPoly()
			ar.MulCoeffwise(a, b, out)
			return out
		}},
		{"NTT", func(ar arith, _ *ring.Context, a, _ *ring.Poly) *ring.Poly {
			out := a.Clone()
			ar.NTT(out)
			return out
		}},
		{"INTT", func(ar arith, _ *ring.Context, a, _ *ring.Poly) *ring.Poly {
			// Any residue vector is some polynomial's evaluation form.
			out := a.Clone()
			out.InNTT = true
			ar.INTT(out)
			return out
		}},
		{"MulPoly", func(ar arith, ctx *ring.Context, a, b *ring.Poly) *ring.Poly {
			out := ctx.NewPoly()
			ar.MulPoly(a, b, out)
			return out
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, err := ring.NewContext(tc.n, tc.moduli)
			if err != nil {
				t.Fatal(err)
			}
			oracle := ring.NewOracle(ctx)
			r := testkit.NewRNG(0xD1FF)
			for iter := 0; iter < 6; iter++ {
				a, b := r.Poly(ctx), r.Poly(ctx)
				for _, o := range ops {
					want := o.run(oracle, ctx, a, b)
					got := o.run(ctx, ctx, a, b)
					if j, i, ok := firstMismatch(want, got); !ok {
						t.Fatalf("%s iter=%d %s: first mismatch at modulus %d coeff %d: oracle=%d context=%d",
							tc.name, iter, o.name, j, i, want.Coeffs[j][i], got.Coeffs[j][i])
					}
					if want.InNTT != got.InNTT {
						t.Fatalf("%s iter=%d %s: domain flag oracle=%v context=%v", tc.name, iter, o.name, want.InNTT, got.InNTT)
					}
				}
			}
		})
	}
}

// TestLadderRoundTripFullDegree runs forward+inverse NTT and a sparse ring
// product at the real ladder degrees on Context and the oracle — full
// n=2048..8192 transforms against the math/big negacyclic reference
// (sparse operand, so the schoolbook reference stays O(n·weight)).
func TestLadderRoundTripFullDegree(t *testing.T) {
	for _, n := range ring.LadderDegrees() {
		params, err := ring.LadderParams(n)
		if err != nil {
			t.Fatalf("LadderParams(%d): %v", n, err)
		}
		forEachBackend(t, func(t *testing.T, be string) {
			t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
				ctx, ar := newCtxOn(t, be, params.N, params.Moduli)
				r := testkit.NewRNG(0xAD0E + uint64(n))
				dense := r.Poly(ctx)
				orig := dense.Clone()
				ar.NTT(dense)
				ar.INTT(dense)
				if j, i, ok := firstMismatch(dense, orig); !ok {
					t.Fatalf("NTT round trip: first mismatch at modulus %d coeff %d", j, i)
				}
				// Sparse second operand: x^1 with coefficient c plus a
				// constant term, so the reference product is cheap.
				sparse := ctx.NewPoly()
				for j, q := range ctx.Moduli {
					sparse.Coeffs[j][0] = 3 % q
					sparse.Coeffs[j][1] = (q - 1) / 2
				}
				out := ctx.NewPoly()
				ar.MulPoly(orig, sparse, out)
				for j, q := range ctx.Moduli {
					want, err := testkit.RefNegacyclicMul(orig.Coeffs[j], sparse.Coeffs[j], q)
					if err != nil {
						t.Fatal(err)
					}
					for i := range want {
						if out.Coeffs[j][i] != want[i] {
							t.Fatalf("n=%d q=%d: MulPoly vs math/big reference: first mismatch at coeff %d: got %d want %d",
								n, q, i, out.Coeffs[j][i], want[i])
						}
					}
				}
			})
		})
	}
}

// goldenLadder pins per-parameter-set digests of a seeded NTT output and a
// seeded sparse ring product. The test recomputes the math/big reference
// for the product before comparing against the pinned digest, so the
// golden can only ever pin an already-cross-checked transform.
type goldenLadder struct {
	N         int      `json:"n"`
	Moduli    []uint64 `json:"moduli"`
	Seed      uint64   `json:"seed"`
	NTTDigest string   `json:"ntt_digest"`
	MulDigest string   `json:"mul_digest"`
}

func TestGoldenLadderVectors(t *testing.T) {
	for _, n := range ring.LadderDegrees() {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			params, err := ring.LadderParams(n)
			if err != nil {
				t.Fatal(err)
			}
			// Goldens were generated on the oracle and must match on both.
			forEachBackend(t, func(t *testing.T, be string) {
				ctx, ar := newCtxOn(t, be, params.N, params.Moduli)
				seed := uint64(0x90D0 + n)
				r := testkit.NewRNG(seed)
				a := r.Poly(ctx)
				sparse := ctx.NewPoly()
				for j, q := range ctx.Moduli {
					sparse.Coeffs[j][0] = 7 % q
					sparse.Coeffs[j][n/2] = q - 2
				}
				prod := ctx.NewPoly()
				ar.MulPoly(a, sparse, prod)
				// Cross-check against math/big before touching the golden.
				for j, q := range ctx.Moduli {
					want, err := testkit.RefNegacyclicMul(a.Coeffs[j], sparse.Coeffs[j], q)
					if err != nil {
						t.Fatal(err)
					}
					for i := range want {
						if prod.Coeffs[j][i] != want[i] {
							t.Fatalf("math/big cross-check failed at modulus %d coeff %d", j, i)
						}
					}
				}
				nttOut := a.Clone()
				ar.NTT(nttOut)
				g := goldenLadder{
					N:         n,
					Moduli:    params.Moduli,
					Seed:      seed,
					NTTDigest: testkit.Digest(nttOut.Coeffs),
					MulDigest: testkit.Digest(prod.Coeffs),
				}
				testkit.Golden(t, fmt.Sprintf("testdata/golden_ladder_n%d.json", n), g)
			})
		})
	}
}
