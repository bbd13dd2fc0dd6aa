package ring

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"reveal/internal/modular"
)

// paperQ is the coefficient modulus of the paper's SEAL-128 smallest set.
const paperQ = 132120577

func testContext(t *testing.T, n int, moduli ...uint64) *Context {
	t.Helper()
	if len(moduli) == 0 {
		moduli = []uint64{paperQ}
	}
	ctx, err := NewContext(n, moduli)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func randPoly(rng *rand.Rand, ctx *Context) *Poly {
	p := ctx.NewPoly()
	for j, q := range ctx.Moduli {
		for i := range p.Coeffs[j] {
			p.Coeffs[j][i] = rng.Uint64() % q
		}
	}
	return p
}

func TestNewContextValidation(t *testing.T) {
	if _, err := NewContext(3, []uint64{paperQ}); err == nil {
		t.Error("non-power-of-two degree should fail")
	}
	if _, err := NewContext(1024, nil); err == nil {
		t.Error("empty moduli should fail")
	}
	if _, err := NewContext(1024, []uint64{6}); err == nil {
		t.Error("composite modulus should fail")
	}
	if _, err := NewContext(1024, []uint64{97}); err == nil {
		t.Error("97 is not ≡ 1 mod 2048, should fail")
	}
	if _, err := NewContext(1024, []uint64{paperQ, paperQ}); err == nil {
		t.Error("duplicate modulus should fail")
	}
	ctx := testContext(t, 1024)
	if ctx.Level() != 1 || ctx.N != 1024 {
		t.Error("context shape wrong")
	}
	if ctx.BigQ().Uint64() != paperQ {
		t.Error("BigQ wrong")
	}
}

func TestNTTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{4, 64, 1024} {
		ctx := testContext(t, n)
		p := randPoly(rng, ctx)
		orig := p.Clone()
		ctx.NTT(p)
		if !p.InNTT {
			t.Fatal("InNTT flag not set")
		}
		if p.Equal(orig) {
			t.Fatal("NTT did not change representation (suspicious)")
		}
		ctx.INTT(p)
		if !p.Equal(orig) {
			t.Fatalf("n=%d: NTT round trip failed", n)
		}
		// Idempotent flags: NTT twice == once.
		ctx.NTT(p)
		q := p.Clone()
		ctx.NTT(p)
		if !p.Equal(q) {
			t.Fatal("double NTT should be a no-op when already in NTT domain")
		}
	}
}

// Negacyclic convolution reference: (a*b)[k] = sum a[i]b[j], x^n = -1.
func schoolbookNegacyclic(a, b []uint64, q uint64) []uint64 {
	n := len(a)
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			prod := modular.Mul(a[i], b[j], q)
			k := i + j
			if k < n {
				out[k] = modular.Add(out[k], prod, q)
			} else {
				out[k-n] = modular.Sub(out[k-n], prod, q)
			}
		}
	}
	return out
}

func TestMulPolyMatchesSchoolbook(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{4, 16, 64} {
		ctx := testContext(t, n)
		a := randPoly(rng, ctx)
		b := randPoly(rng, ctx)
		out := ctx.NewPoly()
		ctx.MulPoly(a, b, out)
		want := schoolbookNegacyclic(a.Coeffs[0], b.Coeffs[0], paperQ)
		for i := range want {
			if out.Coeffs[0][i] != want[i] {
				t.Fatalf("n=%d coeff %d: got %d want %d", n, i, out.Coeffs[0][i], want[i])
			}
		}
	}
}

func TestMulPolyIdentity(t *testing.T) {
	ctx := testContext(t, 64)
	rng := rand.New(rand.NewSource(5))
	a := randPoly(rng, ctx)
	one := ctx.NewPoly()
	one.Coeffs[0][0] = 1
	out := ctx.NewPoly()
	ctx.MulPoly(a, one, out)
	if !out.Equal(a) {
		t.Error("a * 1 != a")
	}
	// x^n = -1: multiplying by x^(n/2) twice negates.
	xHalf := ctx.NewPoly()
	xHalf.Coeffs[0][32] = 1
	t1 := ctx.NewPoly()
	t2 := ctx.NewPoly()
	ctx.MulPoly(a, xHalf, t1)
	ctx.MulPoly(t1, xHalf, t2)
	neg := ctx.NewPoly()
	ctx.Neg(a, neg)
	if !t2.Equal(neg) {
		t.Error("a * x^(n/2) * x^(n/2) != -a (negacyclic property broken)")
	}
}

func TestAddSubNegProperties(t *testing.T) {
	ctx := testContext(t, 16)
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randPoly(rng, ctx)
		b := randPoly(rng, ctx)
		sum := ctx.NewPoly()
		back := ctx.NewPoly()
		ctx.Add(a, b, sum)
		ctx.Sub(sum, b, back)
		if !back.Equal(a) {
			return false
		}
		neg := ctx.NewPoly()
		zero := ctx.NewPoly()
		ctx.Neg(a, neg)
		ctx.Add(a, neg, zero)
		return zero.Equal(ctx.NewPoly())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// NTT is a ring homomorphism: NTT(a*b) = NTT(a) ⊙ NTT(b).
func TestConvolutionTheorem(t *testing.T) {
	ctx := testContext(t, 32)
	rng := rand.New(rand.NewSource(6))
	a := randPoly(rng, ctx)
	b := randPoly(rng, ctx)
	viaCoeff := ctx.NewPoly()
	ctx.MulPoly(a, b, viaCoeff)

	an, bn := a.Clone(), b.Clone()
	ctx.NTT(an)
	ctx.NTT(bn)
	viaNTT := ctx.NewPoly()
	ctx.MulCoeffwise(an, bn, viaNTT)
	ctx.INTT(viaNTT)
	if !viaNTT.Equal(viaCoeff) {
		t.Error("convolution theorem violated")
	}
}

func TestMulScalarAddScalar(t *testing.T) {
	ctx := testContext(t, 8)
	rng := rand.New(rand.NewSource(7))
	a := randPoly(rng, ctx)
	out := ctx.NewPoly()
	ctx.MulScalar(a, 3, out)
	for i := range out.Coeffs[0] {
		want := modular.Mul(a.Coeffs[0][i], 3, paperQ)
		if out.Coeffs[0][i] != want {
			t.Fatalf("MulScalar coeff %d wrong", i)
		}
	}
	ctx.AddScalar(a, 5, out)
	if out.Coeffs[0][0] != modular.Add(a.Coeffs[0][0], 5, paperQ) {
		t.Error("AddScalar constant term wrong")
	}
	if out.Coeffs[0][1] != a.Coeffs[0][1] {
		t.Error("AddScalar must not touch other coefficients")
	}
}

func TestSetSignedAndInfNorm(t *testing.T) {
	ctx := testContext(t, 8)
	p := ctx.NewPoly()
	vals := []int64{0, 1, -1, 41, -41, 2, -3, 7}
	if err := ctx.SetSigned(p, vals); err != nil {
		t.Fatal(err)
	}
	if p.Coeffs[0][2] != paperQ-1 {
		t.Error("negative coefficient not mapped to q-1")
	}
	if got := ctx.InfNormCentered(p); got != 41 {
		t.Errorf("InfNorm=%d want 41", got)
	}
	if err := ctx.SetSigned(p, []int64{1}); err == nil {
		t.Error("wrong length should fail")
	}
}

func TestComposeCRTMultiModulus(t *testing.T) {
	// Two NTT-friendly primes for n=16 (2n=32 | q-1).
	primes, err := modular.GeneratePrimes(20, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(16, primes)
	if err != nil {
		t.Fatal(err)
	}
	p := ctx.NewPoly()
	want := new(big.Int).SetUint64(123456789012)
	ctx.SetCoeffBig(p, 3, want)
	got := ctx.ComposeCRT(new(big.Int), p, 3)
	if got.Cmp(new(big.Int).Mod(want, ctx.BigQ())) != 0 {
		t.Errorf("CRT round trip: got %v want %v", got, want)
	}
	// Round trip on random values below Q.
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 50; i++ {
		v := new(big.Int).Rand(rng, ctx.BigQ())
		ctx.SetCoeffBig(p, 0, v)
		if ctx.ComposeCRT(new(big.Int), p, 0).Cmp(v) != 0 {
			t.Fatalf("CRT round trip failed for %v", v)
		}
	}
}

func TestMultiModulusNTTRoundTrip(t *testing.T) {
	primes, err := modular.GeneratePrimes(30, 2048, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(1024, primes)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	p := randPoly(rng, ctx)
	orig := p.Clone()
	ctx.NTT(p)
	ctx.INTT(p)
	if !p.Equal(orig) {
		t.Error("multi-modulus NTT round trip failed")
	}
}

func TestPolyCloneCopyZeroEqual(t *testing.T) {
	ctx := testContext(t, 8)
	rng := rand.New(rand.NewSource(10))
	a := randPoly(rng, ctx)
	b := a.Clone()
	if !a.Equal(b) {
		t.Error("clone not equal")
	}
	b.Coeffs[0][0] = (b.Coeffs[0][0] + 1) % paperQ
	if a.Equal(b) {
		t.Error("clone should be independent")
	}
	b.Copy(a)
	if !a.Equal(b) {
		t.Error("copy failed")
	}
	b.Zero()
	if !b.Equal(ctx.NewPoly()) {
		t.Error("zero failed")
	}
	c := a.Clone()
	ctx.NTT(c)
	if a.Equal(c) {
		t.Error("different domains should not be equal")
	}
}

func TestCheckSameDomainPanics(t *testing.T) {
	ctx := testContext(t, 8)
	a := ctx.NewPoly()
	b := ctx.NewPoly()
	ctx.NTT(b)
	defer func() {
		if recover() == nil {
			t.Error("mixed-domain Add should panic")
		}
	}()
	ctx.Add(a, b, ctx.NewPoly())
}

func BenchmarkNTT1024(b *testing.B) {
	ctx, err := NewContext(1024, []uint64{paperQ})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	p := ctx.NewPoly()
	for i := range p.Coeffs[0] {
		p.Coeffs[0][i] = rng.Uint64() % paperQ
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.InNTT = false
		ctx.NTT(p)
	}
}

func BenchmarkMulPoly1024(b *testing.B) {
	ctx, err := NewContext(1024, []uint64{paperQ})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	p := ctx.NewPoly()
	q := ctx.NewPoly()
	for i := 0; i < ctx.N; i++ {
		p.Coeffs[0][i] = rng.Uint64() % paperQ
		q.Coeffs[0][i] = rng.Uint64() % paperQ
	}
	out := ctx.NewPoly()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.MulPoly(p, q, out)
	}
}

// NTT is linear: NTT(a + s·b) = NTT(a) + s·NTT(b).
func TestNTTLinearityQuick(t *testing.T) {
	ctx := testContext(t, 32)
	prop := func(seed int64, sRaw uint32) bool {
		rng := rand.New(rand.NewSource(seed))
		s := uint64(sRaw) % paperQ
		a := randPoly(rng, ctx)
		b := randPoly(rng, ctx)
		// lhs = NTT(a + s*b)
		sb := ctx.NewPoly()
		ctx.MulScalar(b, s, sb)
		sum := ctx.NewPoly()
		ctx.Add(a, sb, sum)
		ctx.NTT(sum)
		// rhs = NTT(a) + s*NTT(b)
		an, bn := a.Clone(), b.Clone()
		ctx.NTT(an)
		ctx.NTT(bn)
		sbn := ctx.NewPoly()
		ctx.MulScalar(bn, s, sbn)
		rhs := ctx.NewPoly()
		ctx.Add(an, sbn, rhs)
		return sum.Equal(rhs)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Automorphisms compose: σ_g1(σ_g2(p)) = σ_{g1·g2 mod 2n}(p).
func TestAutomorphismComposition(t *testing.T) {
	ctx := testContext(t, 32)
	rng := rand.New(rand.NewSource(77))
	p := randPoly(rng, ctx)
	for _, pair := range [][2]uint64{{3, 5}, {7, 9}, {63, 3}} {
		g1, g2 := pair[0], pair[1]
		step1 := ctx.NewPoly()
		if err := ctx.Automorphism(p, g2, step1); err != nil {
			t.Fatal(err)
		}
		step2 := ctx.NewPoly()
		if err := ctx.Automorphism(step1, g1, step2); err != nil {
			t.Fatal(err)
		}
		direct := ctx.NewPoly()
		if err := ctx.Automorphism(p, g1*g2%uint64(2*ctx.N), direct); err != nil {
			t.Fatal(err)
		}
		if !step2.Equal(direct) {
			t.Fatalf("composition failed for g1=%d g2=%d", g1, g2)
		}
	}
	// Identity element.
	id := ctx.NewPoly()
	if err := ctx.Automorphism(p, 1, id); err != nil {
		t.Fatal(err)
	}
	if !id.Equal(p) {
		t.Error("σ_1 must be the identity")
	}
	// In-place aliasing is safe.
	alias := p.Clone()
	if err := ctx.Automorphism(alias, 3, alias); err != nil {
		t.Fatal(err)
	}
	want := ctx.NewPoly()
	if err := ctx.Automorphism(p, 3, want); err != nil {
		t.Fatal(err)
	}
	if !alias.Equal(want) {
		t.Error("aliased automorphism wrong")
	}
	// Validation.
	if err := ctx.Automorphism(p, 2, ctx.NewPoly()); err == nil {
		t.Error("even Galois element should fail")
	}
	nttP := p.Clone()
	ctx.NTT(nttP)
	if err := ctx.Automorphism(nttP, 3, ctx.NewPoly()); err == nil {
		t.Error("NTT-domain automorphism should fail")
	}
}
