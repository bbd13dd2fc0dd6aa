package lattice

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomBasis(rng *rand.Rand, n int, scale int64) *Basis {
	for {
		rows := make([][]int64, n)
		for i := range rows {
			rows[i] = make([]int64, n)
			for j := range rows[i] {
				rows[i][j] = rng.Int63n(2*scale+1) - scale
			}
		}
		b, err := NewBasisFromInt64(rows)
		if err != nil {
			continue
		}
		if _, _, gerr := b.gso(); gerr == nil {
			return b
		}
	}
}

func TestBasisBasics(t *testing.T) {
	b, err := NewBasisFromInt64([][]int64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if b.NumRows() != 2 || b.NumCols() != 2 {
		t.Error("shape wrong")
	}
	if b.At(1, 0).Int64() != 3 {
		t.Error("At wrong")
	}
	c := b.Clone()
	c.SetInt64(0, 0, 99)
	if b.At(0, 0).Int64() != 1 {
		t.Error("Clone must be deep")
	}
	r := b.Row(0)
	r[0].SetInt64(77)
	if b.At(0, 0).Int64() != 1 {
		t.Error("Row must copy")
	}
	if b.NormSq(0).Int64() != 5 {
		t.Error("NormSq wrong")
	}
	dot, err := b.DotVec(0, []*big.Int{big.NewInt(2), big.NewInt(3)})
	if err != nil || dot.Int64() != 8 {
		t.Errorf("DotVec=%v err=%v", dot, err)
	}
	if _, err := b.DotVec(0, []*big.Int{big.NewInt(1)}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := NewBasisFromInt64(nil); err == nil {
		t.Error("empty basis should fail")
	}
	if _, err := NewBasisFromInt64([][]int64{{1, 2}, {3}}); err == nil {
		t.Error("ragged basis should fail")
	}
}

func TestGSODetectsDependence(t *testing.T) {
	b, _ := NewBasisFromInt64([][]int64{{1, 2}, {2, 4}})
	if _, _, err := b.gso(); err == nil {
		t.Error("dependent rows should fail GSO")
	}
}

func TestLLLKnownExample(t *testing.T) {
	// Classic example: reduces to short vectors.
	b, _ := NewBasisFromInt64([][]int64{{1, 1, 1}, {-1, 0, 2}, {3, 5, 6}})
	if err := LLL(b, 0.75); err != nil {
		t.Fatal(err)
	}
	ok, err := IsLLLReduced(b, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("output not LLL-reduced")
	}
	// The shortest vector of this lattice has squared norm 1 ((0,1,0)).
	if b.NormSq(0).Int64() > 2 {
		t.Errorf("first vector too long: %v", b.NormSq(0))
	}
}

func TestLLLPreservesVolume(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(5)
		b := randomBasis(rng, n, 20)
		volBefore, err := b.VolumeSq()
		if err != nil {
			t.Fatal(err)
		}
		if err := LLL(b, 0); err != nil {
			t.Fatal(err)
		}
		volAfter, err := b.VolumeSq()
		if err != nil {
			t.Fatal(err)
		}
		if volBefore.Cmp(volAfter) != 0 {
			t.Fatalf("volume changed: %v -> %v", volBefore, volAfter)
		}
		ok, err := IsLLLReduced(b, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Error("not reduced")
		}
	}
}

func TestLLLValidatesDelta(t *testing.T) {
	b, _ := NewBasisFromInt64([][]int64{{1, 0}, {0, 1}})
	if err := LLL(b, 1.5); err == nil {
		t.Error("delta out of range should fail")
	}
	if err := LLL(b, 0.1); err == nil {
		t.Error("delta too small should fail")
	}
}

func TestRoundRat(t *testing.T) {
	cases := []struct {
		num, den int64
		want     int64
	}{
		{7, 2, 4}, {-7, 2, -4}, {1, 3, 0}, {2, 3, 1}, {-2, 3, -1},
		{5, 1, 5}, {0, 1, 0}, {3, 2, 2}, {-3, 2, -2},
	}
	for _, c := range cases {
		r := big.NewRat(c.num, c.den)
		if got := roundRat(r); got.Int64() != c.want {
			t.Errorf("round(%d/%d)=%v want %d", c.num, c.den, got, c.want)
		}
	}
}

func TestShortestVectorKnown(t *testing.T) {
	// Lattice with a planted short vector: rows (1,0,100), (0,1,100),
	// (0,0,101) contain (1,1,-... ) hmm — use a simple orthogonal-ish case.
	b, _ := NewBasisFromInt64([][]int64{{2, 0, 0}, {1, 3, 0}, {1, 1, 4}})
	sv, err := ShortestVector(b)
	if err != nil {
		t.Fatal(err)
	}
	norm := NormSqVec(sv)
	if norm.Int64() != 4 { // (2,0,0) or (−2,0,0)
		t.Errorf("shortest vector %v has norm² %v, want 4", sv, norm)
	}
}

func TestShortestVectorAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 8; trial++ {
		b := randomBasis(rng, 3, 9)
		sv, err := ShortestVector(b)
		if err != nil {
			t.Fatal(err)
		}
		got := NormSqVec(sv)
		// Brute force small coefficient combinations.
		bound := int64(6)
		best := new(big.Int)
		first := true
		for a := -bound; a <= bound; a++ {
			for bb := -bound; bb <= bound; bb++ {
				for c := -bound; c <= bound; c++ {
					if a == 0 && bb == 0 && c == 0 {
						continue
					}
					v := combineRows(b, []int64{a, bb, c}, 0)
					n := NormSqVec(v)
					if first || n.Cmp(best) < 0 {
						best.Set(n)
						first = false
					}
				}
			}
		}
		if got.Cmp(best) != 0 {
			t.Fatalf("trial %d: enumeration found norm² %v, brute force %v", trial, got, best)
		}
	}
}

func TestBKZImprovesOrMatchesLLL(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		b := randomBasis(rng, 6, 50)
		lll := b.Clone()
		if err := LLL(lll, 0); err != nil {
			t.Fatal(err)
		}
		bkz := b.Clone()
		if err := BKZ(bkz, 4, 4); err != nil {
			t.Fatal(err)
		}
		if bkz.NormSq(0).Cmp(lll.NormSq(0)) > 0 {
			t.Errorf("BKZ first vector longer than LLL: %v > %v",
				bkz.NormSq(0), lll.NormSq(0))
		}
		volA, _ := b.VolumeSq()
		volB, _ := bkz.VolumeSq()
		if volA.Cmp(volB) != 0 {
			t.Error("BKZ changed the lattice volume")
		}
	}
}

func TestBKZFullBlockFindsShortest(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	b := randomBasis(rng, 5, 30)
	sv, err := ShortestVector(b)
	if err != nil {
		t.Fatal(err)
	}
	bkz := b.Clone()
	if err := BKZ(bkz, 5, 6); err != nil {
		t.Fatal(err)
	}
	if bkz.NormSq(0).Cmp(NormSqVec(sv)) != 0 {
		t.Errorf("full-block BKZ first vector norm² %v, SVP %v",
			bkz.NormSq(0), NormSqVec(sv))
	}
}

func TestBKZValidation(t *testing.T) {
	b, _ := NewBasisFromInt64([][]int64{{1, 0}, {0, 1}})
	if err := BKZ(b, 1, 1); err == nil {
		t.Error("block size 1 should fail")
	}
	if err := BKZ(b, 2, 0); err == nil {
		t.Error("0 tours should fail")
	}
}

func TestNearestPlaneSolvesBDD(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(4)
		b := randomBasis(rng, n, 30)
		if err := LLL(b, 0); err != nil {
			t.Fatal(err)
		}
		// Plant a lattice point + tiny error.
		coeffs := make([]int64, n)
		for i := range coeffs {
			coeffs[i] = rng.Int63n(11) - 5
		}
		point := combineRows(b, coeffs, 0)
		target := make([]*big.Int, len(point))
		for i := range target {
			target[i] = new(big.Int).Set(point[i])
		}
		// Error of ±1 in one coordinate: well within nearest-plane reach
		// for LLL-reduced random bases of this size.
		target[0].Add(target[0], big.NewInt(1))
		got, err := NearestPlane(b, target)
		if err != nil {
			t.Fatal(err)
		}
		// The recovered point must be a lattice point at distance ≤ the
		// planted error from the target.
		diff := new(big.Int)
		distSq := new(big.Int)
		for i := range got {
			diff.Sub(target[i], got[i])
			diff.Mul(diff, diff)
			distSq.Add(distSq, diff)
		}
		if distSq.Int64() > 1 {
			t.Errorf("trial %d: nearest plane at distance² %v", trial, distSq)
		}
	}
}

func TestNearestPlaneValidation(t *testing.T) {
	b, _ := NewBasisFromInt64([][]int64{{1, 0}, {0, 1}})
	if _, err := NearestPlane(b, []*big.Int{big.NewInt(1)}); err == nil {
		t.Error("target length mismatch should fail")
	}
}

func TestClosestVectorEmbedding(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	b := randomBasis(rng, 4, 20)
	if err := LLL(b, 0); err != nil {
		t.Fatal(err)
	}
	coeffs := []int64{2, -1, 3, 0}
	point := combineRows(b, coeffs, 0)
	target := make([]*big.Int, len(point))
	for i := range target {
		target[i] = new(big.Int).Set(point[i])
	}
	target[1].Add(target[1], big.NewInt(1))
	target[2].Sub(target[2], big.NewInt(1))
	got, err := ClosestVectorEmbedding(b, target, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i].Cmp(point[i]) != 0 {
			t.Fatalf("embedding recovered %v want %v", got, point)
		}
	}
	if _, err := ClosestVectorEmbedding(b, target, 0); err == nil {
		t.Error("zero embedding factor should fail")
	}
	if _, err := ClosestVectorEmbedding(b, target[:1], 2); err == nil {
		t.Error("target length mismatch should fail")
	}
}

// Property: LLL output always satisfies the reduction conditions and spans
// the same lattice (volume check).
func TestLLLPropertyQuick(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		b := randomBasis(rng, n, 15)
		before, err := b.VolumeSq()
		if err != nil {
			return true // dependent: skip
		}
		if err := LLL(b, 0); err != nil {
			return false
		}
		after, err := b.VolumeSq()
		if err != nil {
			return false
		}
		if before.Cmp(after) != 0 {
			return false
		}
		ok, err := IsLLLReduced(b, 0)
		return err == nil && ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestHermiteEliminate(t *testing.T) {
	// Three generators of a rank-2 lattice.
	gens, _ := NewBasisFromInt64([][]int64{{2, 0}, {0, 3}, {2, 3}})
	out, err := hermiteEliminate(gens)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 {
		t.Fatalf("rank=%d want 2", out.NumRows())
	}
	vol, err := out.VolumeSq()
	if err != nil {
		t.Fatal(err)
	}
	if vol.Cmp(big.NewRat(36, 1)) != 0 { // det² = (2·3)²
		t.Errorf("volume² %v want 36", vol)
	}
}

func BenchmarkLLL8(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	basis := randomBasis(rng, 8, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work := basis.Clone()
		if err := LLL(work, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBKZ10Block4(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	basis := randomBasis(rng, 10, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work := basis.Clone()
		if err := BKZ(work, 4, 2); err != nil {
			b.Fatal(err)
		}
	}
}
