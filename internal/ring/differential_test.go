package ring_test

// Differential tests: NTT-based ring arithmetic against the schoolbook
// math/big negacyclic convolution, CRT composition against the direct CRT
// formula, plus committed golden vectors for the NTT butterfly output
// (regenerate with -update). The arithmetic suites run once on Context and
// once on the strict-reduction oracle via forEachBackend — the golden files
// are shared, which forces byte equality between the two.

import (
	"math/big"
	"testing"

	"reveal/internal/testkit"
)

// TestMulPolyDifferential checks the NTT multiply against the schoolbook
// negacyclic convolution, per RNS modulus, on random operands.
func TestMulPolyDifferential(t *testing.T) {
	cases := []struct {
		n      int
		moduli []uint64
	}{
		{64, []uint64{12289}},
		{32, []uint64{12289, 257}},
		{128, []uint64{132120577}}, // the paper's q
	}
	forEachBackend(t, func(t *testing.T, be string) {
		r := testkit.NewRNG(31337)
		for _, tc := range cases {
			ctx, ar := newCtxOn(t, be, tc.n, tc.moduli)
			for iter := 0; iter < 8; iter++ {
				a, b := r.Poly(ctx), r.Poly(ctx)
				out := ctx.NewPoly()
				ar.MulPoly(a, b, out)
				for j, q := range tc.moduli {
					want, err := testkit.RefNegacyclicMul(a.Coeffs[j], b.Coeffs[j], q)
					if err != nil {
						t.Fatal(err)
					}
					for i := range want {
						if out.Coeffs[j][i] != want[i] {
							t.Fatalf("n=%d q=%d iter=%d: MulPoly coeff %d = %d, ref %d",
								tc.n, q, iter, i, out.Coeffs[j][i], want[i])
						}
					}
				}
				// MulPoly must restore its operands (it NTTs clones).
				if a.InNTT || b.InNTT {
					t.Fatal("MulPoly left an operand in the NTT domain")
				}
			}
		}
	})
}

func TestNTTRoundTripDifferential(t *testing.T) {
	forEachBackend(t, func(t *testing.T, be string) {
		ctx, ar := newCtxOn(t, be, 64, []uint64{12289, 257})
		r := testkit.NewRNG(11)
		for iter := 0; iter < 20; iter++ {
			p := r.Poly(ctx)
			orig := p.Clone()
			ar.NTT(p)
			if !p.InNTT {
				t.Fatal("NTT did not mark the poly")
			}
			ar.INTT(p)
			if !p.Equal(orig) {
				t.Fatalf("iter %d: NTT/INTT round trip is not the identity", iter)
			}
		}
	})
}

// TestNTTIsNegacyclicEvaluation checks the NTT against its defining
// property: multiplying in the evaluation domain must equal the negacyclic
// product — which pins down the transform itself, not just invertibility.
func TestNTTIsNegacyclicEvaluation(t *testing.T) {
	forEachBackend(t, func(t *testing.T, be string) {
		const q = uint64(12289)
		ctx, ar := newCtxOn(t, be, 32, []uint64{q})
		r := testkit.NewRNG(12)
		a, b := r.Poly(ctx), r.Poly(ctx)
		want, err := testkit.RefNegacyclicMul(a.Coeffs[0], b.Coeffs[0], q)
		if err != nil {
			t.Fatal(err)
		}
		ar.NTT(a)
		ar.NTT(b)
		out := ctx.NewPoly()
		out.InNTT = true
		ar.MulCoeffwise(a, b, out)
		ar.INTT(out)
		for i := range want {
			if out.Coeffs[0][i] != want[i] {
				t.Fatalf("coeff %d: NTT pointwise product %d, schoolbook %d", i, out.Coeffs[0][i], want[i])
			}
		}
	})
}

// TestComposeCRTDifferential: ComposeCRT equals the reference CRT
// composition under one and two moduli, with one destination reused
// across coefficients.
func TestComposeCRTDifferential(t *testing.T) {
	forEachBackend(t, func(t *testing.T, be string) {
		for _, moduli := range [][]uint64{{12289}, {12289, 257}} {
			ctx, _ := newCtxOn(t, be, 32, moduli)
			r := testkit.NewRNG(21)
			p := r.Poly(ctx)
			got := new(big.Int)
			residues := make([]uint64, len(moduli))
			for i := 0; i < ctx.N; i++ {
				ctx.ComposeCRT(got, p, i)
				for j := range moduli {
					residues[j] = p.Coeffs[j][i]
				}
				want, err := testkit.RefCRTCompose(residues, moduli)
				if err != nil {
					t.Fatal(err)
				}
				if got.Cmp(want) != 0 {
					t.Fatalf("moduli %v, coeff %d: ComposeCRT %v, ref %v", moduli, i, got, want)
				}
			}
		}
	})
}

func TestSetCoeffBigRoundTrip(t *testing.T) {
	forEachBackend(t, func(t *testing.T, be string) {
		ctx, _ := newCtxOn(t, be, 32, []uint64{12289, 257})
		r := testkit.NewRNG(22)
		bigQ := ctx.BigQ()
		p := ctx.NewPoly()
		v := new(big.Int)
		for i := 0; i < ctx.N; i++ {
			v.SetUint64(r.Uint64())
			v.Mod(v, bigQ)
			ctx.SetCoeffBig(p, i, v)
			if got := ctx.ComposeCRT(new(big.Int), p, i); got.Cmp(v) != 0 {
				t.Fatalf("coeff %d: ComposeCRT(SetCoeffBig(%v)) = %v", i, v, got)
			}
		}
	})
}

// goldenNTT pins the exact NTT output for a fixed seeded input, catching
// silent changes to twiddle order, scaling, or butterfly layout that a
// round-trip test alone would miss.
type goldenNTT struct {
	N      int        `json:"n"`
	Moduli []uint64   `json:"moduli"`
	Seed   uint64     `json:"seed"`
	Input  [][]uint64 `json:"input"`
	Output [][]uint64 `json:"output"`
}

func TestGoldenNTT(t *testing.T) {
	forEachBackend(t, func(t *testing.T, be string) {
		const seed = 0x5EA1
		moduli := []uint64{12289, 257}
		ctx, ar := newCtxOn(t, be, 64, moduli)
		r := testkit.NewRNG(seed)
		p := r.Poly(ctx)
		g := goldenNTT{N: ctx.N, Moduli: moduli, Seed: seed}
		for j := range moduli {
			g.Input = append(g.Input, append([]uint64(nil), p.Coeffs[j]...))
		}
		ar.NTT(p)
		for j := range moduli {
			g.Output = append(g.Output, append([]uint64(nil), p.Coeffs[j]...))
		}
		// The pinned transform must still invert back to the pinned input —
		// the golden file can never capture a non-invertible (wrong) NTT.
		ar.INTT(p)
		for j := range moduli {
			for i, v := range g.Input[j] {
				if p.Coeffs[j][i] != v {
					t.Fatalf("golden NTT input does not round-trip at [%d][%d]", j, i)
				}
			}
		}
		testkit.Golden(t, "testdata/golden_ntt.json", g)
	})
}

// TestGoldenMulPoly pins a full ring product digest — a compact tripwire
// over every layer (NTT, Shoup twiddles, pointwise product, inverse).
func TestGoldenMulPoly(t *testing.T) {
	forEachBackend(t, func(t *testing.T, be string) {
		ctx, ar := newCtxOn(t, be, 128, []uint64{132120577})
		r := testkit.NewRNG(0xB0B)
		a, b := r.Poly(ctx), r.Poly(ctx)
		out := ctx.NewPoly()
		ar.MulPoly(a, b, out)
		testkit.Golden(t, "testdata/golden_mulpoly.json", map[string]any{
			"n":      ctx.N,
			"q":      uint64(132120577),
			"digest": testkit.Digest(out.Coeffs),
		})
	})
}
