package modular_test

// Differential tests: the fast uint64 arithmetic against the slow math/big
// reference in internal/testkit, plus a committed golden vector pinning the
// exact outputs of every scalar operation (regenerate with -update).

import (
	"testing"

	"reveal/internal/modular"
	"reveal/internal/testkit"
)

// testModuli spans the sizes the attack uses: a tiny prime, the paper's
// q = 132120577, the 14-bit NTT prime used in small tests, and a 61-bit
// NTT prime near the top of the supported range.
var testModuli = []uint64{97, 12289, 132120577, 0x1fffffffffe00001}

func TestScalarOpsDifferential(t *testing.T) {
	r := testkit.NewRNG(2024)
	for _, q := range testModuli {
		br, err := modular.NewBarrett(q)
		if err != nil {
			t.Fatalf("NewBarrett(%d): %v", q, err)
		}
		for i := 0; i < 2000; i++ {
			a, b := r.Uint64Below(q), r.Uint64Below(q)
			if got, want := modular.Add(a, b, q), testkit.RefAddMod(a, b, q); got != want {
				t.Fatalf("Add(%d,%d,%d) = %d, ref %d", a, b, q, got, want)
			}
			if got, want := modular.Sub(a, b, q), testkit.RefSubMod(a, b, q); got != want {
				t.Fatalf("Sub(%d,%d,%d) = %d, ref %d", a, b, q, got, want)
			}
			if got, want := modular.Neg(a, q), testkit.RefSubMod(0, a, q); got != want {
				t.Fatalf("Neg(%d,%d) = %d, ref %d", a, q, got, want)
			}
			if got, want := modular.Mul(a, b, q), testkit.RefMulMod(a, b, q); got != want {
				t.Fatalf("Mul(%d,%d,%d) = %d, ref %d", a, b, q, got, want)
			}
			if got, want := br.MulMod(a, b), testkit.RefMulMod(a, b, q); got != want {
				t.Fatalf("Barrett.MulMod(%d,%d) mod %d = %d, ref %d", a, b, q, got, want)
			}
			pre := modular.ShoupPrecon(b, q)
			if got, want := modular.MulShoup(a, b, pre, q), testkit.RefMulMod(a, b, q); got != want {
				t.Fatalf("MulShoup(%d,%d) mod %d = %d, ref %d", a, b, q, got, want)
			}
		}
	}
}

func TestExpInverseDifferential(t *testing.T) {
	r := testkit.NewRNG(77)
	for _, q := range testModuli {
		for i := 0; i < 300; i++ {
			a := r.Uint64Below(q)
			e := r.Uint64Below(1 << 20)
			if got, want := modular.Exp(a, e, q), testkit.RefExpMod(a, e, q); got != want {
				t.Fatalf("Exp(%d,%d,%d) = %d, ref %d", a, e, q, got, want)
			}
			inv, ok := modular.Inverse(a, q)
			refInv, refOK := testkit.RefInverse(a, q)
			if ok != refOK || (ok && inv != refInv) {
				t.Fatalf("Inverse(%d,%d) = %d,%v; ref %d,%v", a, q, inv, ok, refInv, refOK)
			}
		}
	}
	// Non-invertible residues of a composite modulus must be rejected
	// identically by both implementations.
	const comp = uint64(12288) // 2^12 * 3
	for i := uint64(0); i < 200; i++ {
		inv, ok := modular.Inverse(i, comp)
		refInv, refOK := testkit.RefInverse(i, comp)
		if ok != refOK || (ok && inv != refInv) {
			t.Fatalf("Inverse(%d,%d) = %d,%v; ref %d,%v", i, comp, inv, ok, refInv, refOK)
		}
	}
}

func TestCenteredRepDifferential(t *testing.T) {
	r := testkit.NewRNG(5)
	for _, q := range testModuli {
		bigQ := testkit.Big(q)
		for i := 0; i < 500; i++ {
			x := r.Uint64Below(q)
			want := testkit.RefCenter(testkit.Big(x), bigQ).Int64()
			if got := modular.CenteredRep(x, q); got != want {
				t.Fatalf("CenteredRep(%d,%d) = %d, ref %d", x, q, got, want)
			}
			if back := modular.FromCentered(modular.CenteredRep(x, q), q); back != x {
				t.Fatalf("FromCentered(CenteredRep(%d)) = %d mod %d", x, back, q)
			}
		}
	}
}

func TestPrimeGenerationDifferential(t *testing.T) {
	primes, err := modular.GeneratePrimes(20, 2048, 4)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for _, q := range primes {
		if seen[q] {
			t.Fatalf("duplicate prime %d", q)
		}
		seen[q] = true
		if !testkit.RefIsPrime(q) {
			t.Fatalf("GeneratePrimes returned composite %d", q)
		}
		if q%2048 != 1 {
			t.Fatalf("prime %d is not 1 mod 2048", q)
		}
		// A primitive 2048th root must exist and have exact order 2048.
		w, err := modular.MinimalPrimitiveNthRoot(2048, q)
		if err != nil {
			t.Fatalf("MinimalPrimitiveNthRoot(2048, %d): %v", q, err)
		}
		if testkit.RefExpMod(w, 2048, q) != 1 {
			t.Fatalf("omega^2048 != 1 mod %d", q)
		}
		if testkit.RefExpMod(w, 1024, q) == 1 {
			t.Fatalf("omega has order < 2048 mod %d", q)
		}
	}
}

// goldenArithEntry pins one scalar operation result in the golden file.
type goldenArithEntry struct {
	Op     string `json:"op"`
	A      uint64 `json:"a"`
	B      uint64 `json:"b"`
	Q      uint64 `json:"q"`
	Result uint64 `json:"result"`
}

// TestGoldenArith pins exact outputs of the scalar ops on a fixed seeded
// input set, so a silent behavior change (e.g. a different reduction
// strategy that is wrong only on edge inputs) diffs against the repo.
func TestGoldenArith(t *testing.T) {
	r := testkit.NewRNG(0xA17)
	var entries []goldenArithEntry
	for _, q := range testModuli {
		for i := 0; i < 8; i++ {
			a, b := r.Uint64Below(q), r.Uint64Below(q)
			entries = append(entries,
				goldenArithEntry{"add", a, b, q, modular.Add(a, b, q)},
				goldenArithEntry{"sub", a, b, q, modular.Sub(a, b, q)},
				goldenArithEntry{"mul", a, b, q, modular.Mul(a, b, q)},
				goldenArithEntry{"exp", a, b % 4096, q, modular.Exp(a, b%4096, q)},
			)
		}
		// Edge inputs the random sweep is unlikely to hit.
		for _, pair := range [][2]uint64{{0, 0}, {q - 1, q - 1}, {q - 1, 1}, {1, q - 1}} {
			a, b := pair[0], pair[1]
			entries = append(entries,
				goldenArithEntry{"add", a, b, q, modular.Add(a, b, q)},
				goldenArithEntry{"mul", a, b, q, modular.Mul(a, b, q)},
			)
		}
	}
	// Cross-check every entry against the reference before pinning: the
	// golden file must never encode a wrong value.
	for _, e := range entries {
		var want uint64
		switch e.Op {
		case "add":
			want = testkit.RefAddMod(e.A, e.B, e.Q)
		case "sub":
			want = testkit.RefSubMod(e.A, e.B, e.Q)
		case "mul":
			want = testkit.RefMulMod(e.A, e.B, e.Q)
		case "exp":
			want = testkit.RefExpMod(e.A, e.B, e.Q)
		}
		if e.Result != want {
			t.Fatalf("%s(%d,%d) mod %d = %d, ref %d", e.Op, e.A, e.B, e.Q, e.Result, want)
		}
	}
	testkit.Golden(t, "testdata/golden_arith.json", entries)
}
