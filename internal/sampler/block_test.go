package sampler

import (
	"math"
	"testing"
)

// checkBlockMatchesSequential draws n normals with one NormFloat64s call
// and with n NormFloat64 calls from two generators of one seed, and fails
// unless every value is Float64bits-equal and both generators end in the
// same state.
func checkBlockMatchesSequential(t *testing.T, seed uint64, n int) {
	t.Helper()
	block, seq := NewXoshiro256(seed), NewXoshiro256(seed)
	got := make([]float64, n)
	block.NormFloat64s(got)
	for i := range got {
		want, _ := NormFloat64(seq)
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("seed %d, n %d: value %d is %v (%#x), NormFloat64 gives %v (%#x)",
				seed, n, i, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
		}
	}
	if block.s != seq.s {
		t.Fatalf("seed %d, n %d: generator state %x after the block, %x after %d NormFloat64 calls",
			seed, n, block.s, seq.s, n)
	}
}

// TestNormFloat64sMatchesSequential: a block draw is exactly as many
// NormFloat64 calls — the same values, bit for bit, and the same generator
// state — for every length from 0 to 600 (odd and even, within and across
// the internal block), for long blocks over many seeds, and across
// successive calls of mixed lengths.
func TestNormFloat64sMatchesSequential(t *testing.T) {
	for _, seed := range []uint64{0, 1, 0x9e3779b97f4a7c15} {
		for n := 0; n <= 600; n++ {
			checkBlockMatchesSequential(t, seed, n)
		}
	}
	for seed := uint64(2); seed < 52; seed++ {
		checkBlockMatchesSequential(t, seed, 20003)
	}
	block, seq := NewXoshiro256(77), NewXoshiro256(77)
	for _, n := range []int{1, 63, 64, 65, 2, 0, 129, 7, 300} {
		got := make([]float64, n)
		block.NormFloat64s(got)
		for i := range got {
			want, _ := NormFloat64(seq)
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("successive blocks: block of %d, value %d is %v, want %v", n, i, got[i], want)
			}
		}
	}
	if block.s != seq.s {
		t.Fatal("successive blocks leave a different generator state")
	}
}

// polarOracle is NormFloat64's tail for one accepted candidate.
func polarOracle(u, s float64) float64 { return u * math.Sqrt(-2*math.Log(s)/s) }

// TestPolarTailEdges holds the block tail to NormFloat64's expression on
// the edges of the logarithm's argument reduction: s just below 1, the
// smallest nonzero s the polar method produces (2⁻¹⁰⁴: u and v are
// multiples of 2⁻⁵²), s at √2/2 and one ulp either side (the reduction's
// comparison) at several exponents, and every power of two in range. Each
// s is scored in both lanes of a pair and as an odd last entry.
func TestPolarTailEdges(t *testing.T) {
	below1 := math.Nextafter(1, 0)
	ss := []float64{below1, math.Nextafter(below1, 0), 0x1p-104, math.Nextafter(0x1p-104, 1), 0.5, 0.75}
	for e := 0; e <= 103; e++ {
		h := math.Ldexp(math.Sqrt2/2, -e)
		ss = append(ss, h, math.Nextafter(h, 0), math.Nextafter(h, 1), math.Ldexp(1, -e-1))
	}
	us := []float64{1 - 0x1p-52, -1 + 0x1p-52, 0x1p-52, -0.5, 0.25}
	for _, s := range ss {
		if !(s > 0 && s < 1) {
			t.Fatalf("edge input %v outside (0, 1)", s)
		}
		for _, u := range us {
			want := math.Float64bits(polarOracle(u, s))
			// Entry k of n: either lane of a pair, or the odd last entry.
			for _, at := range []struct{ k, n int }{{0, 2}, {1, 2}, {2, 3}} {
				uv, sv := []float64{0.5, 0.5, 0.5}[:at.n], []float64{0.25, 0.25, 0.25}[:at.n]
				uv[at.k], sv[at.k] = u, s
				polarTail(uv, sv)
				if got := math.Float64bits(uv[at.k]); got != want {
					t.Fatalf("u %v, s %v (%#x) in entry %d of %d: %#x, want %#x",
						u, s, math.Float64bits(s), at.k, at.n, got, want)
				}
			}
		}
	}
}

// FuzzNormFloat64s: for any seed and length, a block draw equals that many
// NormFloat64 calls in values and generator state.
func FuzzNormFloat64s(f *testing.F) {
	f.Add(uint64(1), uint16(0))
	f.Add(uint64(7), uint16(1))
	f.Add(uint64(42), uint16(65))
	f.Add(uint64(0xdeadbeef), uint16(4099))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16) {
		checkBlockMatchesSequential(t, seed, int(n))
	})
}

func BenchmarkNormFloat64(b *testing.B) {
	p := NewXoshiro256(13)
	var v float64
	for i := 0; i < b.N; i++ {
		v, _ = NormFloat64(p)
	}
	sinkF64 = v
}

func BenchmarkNormFloat64s(b *testing.B) {
	p := NewXoshiro256(13)
	buf := make([]float64, 64)
	for i := 0; i < b.N; i += len(buf) {
		p.NormFloat64s(buf)
	}
	sinkF64 = buf[0]
}

var sinkF64 float64
