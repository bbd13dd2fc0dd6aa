package modular

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// testModuli covers small, medium, and SEAL-realistic moduli, including the
// paper's q = 132120577.
var testModuli = []uint64{2, 3, 17, 257, 65537, 132120577, 1152921504606584833, (1 << 61) - 1}

func TestAddSubNeg(t *testing.T) {
	for _, q := range testModuli {
		for _, a := range []uint64{0, 1, q / 2, q - 1} {
			for _, b := range []uint64{0, 1, q / 3, q - 1} {
				got := Add(a, b, q)
				want := (a + b) % q
				if got != want {
					t.Errorf("Add(%d,%d,%d)=%d want %d", a, b, q, got, want)
				}
				if Sub(Add(a, b, q), b, q) != a {
					t.Errorf("Sub(Add(%d,%d),%d) mod %d != %d", a, b, b, q, a)
				}
				if Add(a, Neg(a, q), q) != 0 {
					t.Errorf("a + (-a) != 0 mod %d for a=%d", q, a)
				}
			}
		}
	}
}

func TestMulSmallCases(t *testing.T) {
	cases := []struct{ a, b, q, want uint64 }{
		{0, 0, 7, 0},
		{3, 4, 7, 5},
		{6, 6, 7, 1},
		{132120576, 132120576, 132120577, 1}, // (-1)*(-1) = 1
		{1 << 60, 1 << 60, (1 << 61) - 1, 1 << 59}, // 2^120 = 2^(61+59) ≡ 2^59 (mod 2^61-1)
	}
	for _, c := range cases {
		if got := Mul(c.a, c.b, c.q); got != c.want {
			t.Errorf("Mul(%d,%d,%d)=%d want %d", c.a, c.b, c.q, got, c.want)
		}
	}
}

func TestExp(t *testing.T) {
	// Fermat's little theorem: a^(q-1) = 1 mod prime q for a != 0.
	for _, q := range []uint64{7, 257, 65537, 132120577} {
		for _, a := range []uint64{1, 2, 3, q - 1} {
			if got := Exp(a, q-1, q); got != 1 {
				t.Errorf("Exp(%d,%d,%d)=%d want 1", a, q-1, q, got)
			}
		}
	}
	if Exp(5, 0, 7) != 1 {
		t.Error("a^0 should be 1")
	}
	if Exp(5, 1, 7) != 5 {
		t.Error("a^1 should be a")
	}
}

func TestInverse(t *testing.T) {
	for _, q := range []uint64{7, 257, 65537, 132120577} {
		for a := uint64(1); a < 100 && a < q; a++ {
			inv, ok := Inverse(a, q)
			if !ok {
				t.Fatalf("Inverse(%d,%d) should exist", a, q)
			}
			if Mul(a, inv, q) != 1 {
				t.Errorf("a*a^-1 != 1 for a=%d q=%d", a, q)
			}
		}
	}
	if _, ok := Inverse(0, 7); ok {
		t.Error("Inverse(0) should not exist")
	}
	if _, ok := Inverse(6, 9); ok {
		t.Error("Inverse(6,9) should not exist (gcd 3)")
	}
	if inv, ok := Inverse(4, 9); !ok || Mul(4, inv, 9) != 1 {
		t.Error("Inverse(4,9) should exist")
	}
}

func TestValidateModulus(t *testing.T) {
	if err := ValidateModulus(0); err == nil {
		t.Error("modulus 0 should be rejected")
	}
	if err := ValidateModulus(1); err == nil {
		t.Error("modulus 1 should be rejected")
	}
	if err := ValidateModulus(1 << 62); err == nil {
		t.Error("62-bit modulus should be rejected")
	}
	if err := ValidateModulus(132120577); err != nil {
		t.Errorf("paper modulus rejected: %v", err)
	}
}

func TestBarrettMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, q := range []uint64{3, 257, 132120577, (1 << 61) - 1} {
		b, err := NewBarrett(q)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000; i++ {
			y := rng.Uint64() % q
			xr := rng.Uint64() % q
			if got, want := b.MulMod(xr, y), Mul(xr, y, q); got != want {
				t.Fatalf("Barrett(%d).MulMod(%d,%d)=%d want %d", q, xr, y, got, want)
			}
		}
	}
}

func TestShoupMul(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, q := range []uint64{257, 132120577, 1152921504606584833} {
		for i := 0; i < 2000; i++ {
			x := rng.Uint64() % q
			y := rng.Uint64() % q
			pre := ShoupPrecon(y, q)
			if got, want := MulShoup(x, y, pre, q), Mul(x, y, q); got != want {
				t.Fatalf("MulShoup(%d,%d) mod %d = %d want %d", x, y, q, got, want)
			}
		}
	}
}

// Property: Mul is commutative, associative, and distributes over Add.
func TestMulPropertiesQuick(t *testing.T) {
	const q = 132120577
	commutative := func(a, b uint64) bool {
		a, b = a%q, b%q
		return Mul(a, b, q) == Mul(b, a, q)
	}
	associative := func(a, b, c uint64) bool {
		a, b, c = a%q, b%q, c%q
		return Mul(Mul(a, b, q), c, q) == Mul(a, Mul(b, c, q), q)
	}
	distributive := func(a, b, c uint64) bool {
		a, b, c = a%q, b%q, c%q
		return Mul(a, Add(b, c, q), q) == Add(Mul(a, b, q), Mul(a, c, q), q)
	}
	for name, prop := range map[string]any{
		"commutative": commutative, "associative": associative, "distributive": distributive,
	} {
		if err := quick.Check(prop, nil); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// Property: Exp(a, e1+e2) == Exp(a,e1)*Exp(a,e2).
func TestExpHomomorphismQuick(t *testing.T) {
	const q = 65537
	prop := func(a uint64, e1, e2 uint16) bool {
		a %= q
		lhs := Exp(a, uint64(e1)+uint64(e2), q)
		rhs := Mul(Exp(a, uint64(e1), q), Exp(a, uint64(e2), q), q)
		return lhs == rhs
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestCenteredRepRoundTrip(t *testing.T) {
	const q = 132120577
	prop := func(x uint64) bool {
		x %= q
		c := CenteredRep(x, q)
		if c > int64(q)/2 || c < -int64(q)/2 {
			return false
		}
		return FromCentered(c, q) == x
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestFromCenteredLargeMagnitude(t *testing.T) {
	const q = 17
	if FromCentered(-1, q) != 16 {
		t.Error("FromCentered(-1) wrong")
	}
	if FromCentered(-17, q) != 0 {
		t.Error("FromCentered(-q) wrong")
	}
	if FromCentered(35, q) != 1 {
		t.Error("FromCentered(2q+1) wrong")
	}
}

func BenchmarkMul(b *testing.B) {
	const q = 132120577
	x, y := uint64(987654321), uint64(123456789)
	for i := 0; i < b.N; i++ {
		x = Mul(x, y, q)
	}
	sink = x
}

func BenchmarkBarrettMulMod(b *testing.B) {
	const q = 132120577
	br, _ := NewBarrett(q)
	x, y := uint64(987654)%q, uint64(123456789)%q
	for i := 0; i < b.N; i++ {
		x = br.MulMod(x, y)
	}
	sink = x
}

func BenchmarkMulShoup(b *testing.B) {
	const q = 132120577
	y := uint64(123456789) % q
	pre := ShoupPrecon(y, q)
	x := uint64(987654) % q
	for i := 0; i < b.N; i++ {
		x = MulShoup(x, y, pre, q)
	}
	sink = x
}

var sink uint64
