package ring_test

// Property-based invariant tests: the ring axioms of R_q = Z_q[x]/(x^n+1)
// must hold for every seeded random triple, and the Galois automorphisms
// must be ring homomorphisms. Each suite runs once on Context and once on
// the strict-reduction oracle.

import (
	"testing"

	"reveal/internal/ring"
	"reveal/internal/testkit"
)

func propCtx(t *testing.T, be string) (*ring.Context, arith) {
	t.Helper()
	return newCtxOn(t, be, 64, []uint64{12289, 257})
}

func TestRingAdditiveLaws(t *testing.T) {
	forEachBackend(t, func(t *testing.T, be string) {
		ctx, ar := propCtx(t, be)
		r := testkit.NewRNG(101)
		for iter := 0; iter < 10; iter++ {
			a, b, c := r.Poly(ctx), r.Poly(ctx), r.Poly(ctx)
			ab, ba := ctx.NewPoly(), ctx.NewPoly()
			ar.Add(a, b, ab)
			ar.Add(b, a, ba)
			if !ab.Equal(ba) {
				t.Fatal("a+b != b+a")
			}
			abc1, abc2, tmp := ctx.NewPoly(), ctx.NewPoly(), ctx.NewPoly()
			ar.Add(a, b, tmp)
			ar.Add(tmp, c, abc1)
			ar.Add(b, c, tmp)
			ar.Add(a, tmp, abc2)
			if !abc1.Equal(abc2) {
				t.Fatal("(a+b)+c != a+(b+c)")
			}
			neg, sum := ctx.NewPoly(), ctx.NewPoly()
			ar.Neg(a, neg)
			ar.Add(a, neg, sum)
			zero := ctx.NewPoly()
			if !sum.Equal(zero) {
				t.Fatal("a + (-a) != 0")
			}
			diff, viaNeg := ctx.NewPoly(), ctx.NewPoly()
			ar.Sub(a, b, diff)
			ar.Neg(b, tmp)
			ar.Add(a, tmp, viaNeg)
			if !diff.Equal(viaNeg) {
				t.Fatal("a-b != a+(-b)")
			}
		}
	})
}

func TestRingMultiplicativeLaws(t *testing.T) {
	forEachBackend(t, func(t *testing.T, be string) {
		ctx, ar := propCtx(t, be)
		r := testkit.NewRNG(102)
		for iter := 0; iter < 6; iter++ {
			a, b, c := r.Poly(ctx), r.Poly(ctx), r.Poly(ctx)
			ab, ba := ctx.NewPoly(), ctx.NewPoly()
			ar.MulPoly(a, b, ab)
			ar.MulPoly(b, a, ba)
			if !ab.Equal(ba) {
				t.Fatal("a*b != b*a")
			}
			// Associativity: (a*b)*c == a*(b*c).
			l, rr, tmp := ctx.NewPoly(), ctx.NewPoly(), ctx.NewPoly()
			ar.MulPoly(ab, c, l)
			ar.MulPoly(b, c, tmp)
			ar.MulPoly(a, tmp, rr)
			if !l.Equal(rr) {
				t.Fatal("(a*b)*c != a*(b*c)")
			}
			// Distributivity: a*(b+c) == a*b + a*c.
			bc, abc, abac, ac := ctx.NewPoly(), ctx.NewPoly(), ctx.NewPoly(), ctx.NewPoly()
			ar.Add(b, c, bc)
			ar.MulPoly(a, bc, abc)
			ar.MulPoly(a, c, ac)
			ar.Add(ab, ac, abac)
			if !abc.Equal(abac) {
				t.Fatal("a*(b+c) != a*b + a*c")
			}
			// Multiplicative identity.
			one := ctx.NewPoly()
			for j := range ctx.Moduli {
				one.Coeffs[j][0] = 1
			}
			aOne := ctx.NewPoly()
			ar.MulPoly(a, one, aOne)
			if !aOne.Equal(a) {
				t.Fatal("a*1 != a")
			}
		}
	})
}

func TestScalarMulMatchesRepeatedAdd(t *testing.T) {
	forEachBackend(t, func(t *testing.T, be string) {
		ctx, ar := propCtx(t, be)
		r := testkit.NewRNG(103)
		a := r.Poly(ctx)
		acc := ctx.NewPoly()
		byScalar := ctx.NewPoly()
		for s := uint64(1); s <= 8; s++ {
			ar.Add(acc, a, acc)
			ctx.MulScalar(a, s, byScalar)
			if !byScalar.Equal(acc) {
				t.Fatalf("%d*a != a added %d times", s, s)
			}
		}
	})
}

// TestAutomorphismIsRingHomomorphism: x -> x^g must commute with both ring
// operations — the property ApplyGalois and the attack's hint rotation
// depend on.
func TestAutomorphismIsRingHomomorphism(t *testing.T) {
	forEachBackend(t, func(t *testing.T, be string) {
		ctx, ar := propCtx(t, be)
		r := testkit.NewRNG(104)
		for _, g := range []uint64{3, 5, 2*64 - 1} {
			a, b := r.Poly(ctx), r.Poly(ctx)
			sum, prod := ctx.NewPoly(), ctx.NewPoly()
			ar.Add(a, b, sum)
			ar.MulPoly(a, b, prod)
			autA, autB, autSum, autProd := ctx.NewPoly(), ctx.NewPoly(), ctx.NewPoly(), ctx.NewPoly()
			for dst, src := range map[*ring.Poly]*ring.Poly{autA: a, autB: b, autSum: sum, autProd: prod} {
				if err := ctx.Automorphism(src, g, dst); err != nil {
					t.Fatalf("Automorphism(g=%d): %v", g, err)
				}
			}
			check := ctx.NewPoly()
			ar.Add(autA, autB, check)
			if !check.Equal(autSum) {
				t.Fatalf("g=%d: aut(a+b) != aut(a)+aut(b)", g)
			}
			ar.MulPoly(autA, autB, check)
			if !check.Equal(autProd) {
				t.Fatalf("g=%d: aut(a*b) != aut(a)*aut(b)", g)
			}
		}
		// An even g is not a unit mod 2n and must be rejected.
		bad := ctx.NewPoly()
		if err := ctx.Automorphism(bad, 4, ctx.NewPoly()); err == nil {
			t.Fatal("Automorphism accepted even Galois element")
		}
	})
}

func TestSetSignedInfNorm(t *testing.T) {
	forEachBackend(t, func(t *testing.T, be string) {
		ctx, _ := propCtx(t, be)
		r := testkit.NewRNG(105)
		for iter := 0; iter < 10; iter++ {
			vals := r.SignedCoeffs(ctx.N, 40)
			p := ctx.NewPoly()
			if err := ctx.SetSigned(p, vals); err != nil {
				t.Fatal(err)
			}
			var want uint64
			for _, v := range vals {
				m := v
				if m < 0 {
					m = -m
				}
				if uint64(m) > want {
					want = uint64(m)
				}
			}
			if got := ctx.InfNormCentered(p); got != want {
				t.Fatalf("InfNormCentered = %d, want %d", got, want)
			}
		}
	})
}
