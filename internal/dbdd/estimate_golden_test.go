package dbdd

import (
	"math"
	"testing"

	"reveal/internal/testkit"
)

// hintedSealInstance is the paper's Table III instance with seeded hints on
// the error coordinates: each one is skipped, made perfect, or given an
// approximate hint whose variance spans three decades, in the proportions
// given. Hints are integrated directly (never through a probability map),
// so the instance depends on the seed alone.
func hintedSealInstance(t testing.TB, seed uint64, perfect, approx float64) *Instance {
	t.Helper()
	in, err := NewLWEInstance(1024, 1024, 132120577, 2.0/3.0, 3.2*3.2)
	if err != nil {
		t.Fatal(err)
	}
	r := testkit.NewRNG(seed)
	for c := 1024; c < 2048; c++ {
		u := r.Float64()
		value := float64(r.Int64Centered(9))
		switch {
		case u < perfect:
			err = in.PerfectHint(c, value)
		case u < perfect+approx:
			err = in.ApproximateHint(c, value+r.Float64()-0.5, math.Pow(10, 3*r.Float64()-2))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return in
}

// hintedFullInstance is a dense-covariance instance over the paper's
// modulus and error width, with seeded perfect hints and approximate hints
// along random two-coordinate directions. n stays well below the paper's
// 1024: one dense log-determinant at d = 2049 takes seconds.
func hintedFullInstance(t testing.TB, seed uint64, n, perfects, vecs int) *FullInstance {
	t.Helper()
	in, err := NewFullLWEInstance(n, n, 132120577, 2.0/3.0, 3.2*3.2)
	if err != nil {
		t.Fatal(err)
	}
	r := testkit.NewRNG(seed)
	// Perfect hints on distinct error coordinates n, n+2, n+4, …
	for i := 0; i < perfects; i++ {
		if err := in.PerfectHint(n+2*i, float64(r.Int64Centered(4))); err != nil {
			t.Fatal(err)
		}
	}
	v := make([]float64, 2*n)
	for i := 0; i < vecs; i++ {
		// Odd error coordinates were never eliminated.
		a := n + 1 + 2*int(r.Uint64Below(uint64(n/2)))
		b := n + 1 + 2*int(r.Uint64Below(uint64(n/2)))
		v[a] += 1
		v[b] -= 0.5
		if err := in.ApproximateHintVec(v, r.Float64()*4-2, 0.05+r.Float64()); err != nil {
			t.Fatal(err)
		}
		v[a], v[b] = 0, 0
	}
	return in
}

// TestEstimateBikzGolden pins the bisected block size of hinted instances
// to the bit. The values were recorded before the bisection was shared
// between Instance and FullInstance and its log-volume hoisted out of the
// probe loop; any change to the probe arithmetic or its order shows here.
func TestEstimateBikzGolden(t *testing.T) {
	diag := []struct {
		seed            uint64
		perfect, approx float64
		want            uint64
	}{
		{seed: 1, perfect: 0, approx: 0, want: 0x4075b01da6000000},      // 347.007
		{seed: 2, perfect: 0.2, approx: 0.5, want: 0x406dee450c000000},  // 239.446
		{seed: 3, perfect: 0.5, approx: 0.4, want: 0x4060ce691c000000},  // 134.450
		{seed: 4, perfect: 0.8, approx: 0.15, want: 0x4043b87ee0000000}, // 39.441
		{seed: 5, perfect: 0, approx: 1, want: 0x4072ff0bd3000000},      // 303.940
	}
	for _, c := range diag {
		got, err := hintedSealInstance(t, c.seed, c.perfect, c.approx).EstimateBikz()
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != c.want {
			t.Errorf("Instance seed %d: bikz %v (%#x), want %v (%#x)", c.seed,
				got, math.Float64bits(got), math.Float64frombits(c.want), c.want)
		}
	}
	full := []struct {
		seed              uint64
		n, perfects, vecs int
		want              uint64
	}{
		{seed: 11, n: 256, perfects: 4, vecs: 8, want: 0x40397409e0000000},   // 25.453
		{seed: 12, n: 320, perfects: 0, vecs: 0, want: 0x4043f86268000000},   // 39.941
		{seed: 13, n: 384, perfects: 24, vecs: 24, want: 0x404d765580000000}, // 58.924
	}
	for _, c := range full {
		got, err := hintedFullInstance(t, c.seed, c.n, c.perfects, c.vecs).EstimateBikz()
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != c.want {
			t.Errorf("FullInstance seed %d: bikz %v (%#x), want %v (%#x)", c.seed,
				got, math.Float64bits(got), math.Float64frombits(c.want), c.want)
		}
	}
}
