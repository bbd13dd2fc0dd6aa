package sca

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"reveal/internal/linalg"
	"reveal/internal/trace"
)

// referenceLogLikelihoods replicates the pre-scorer per-call arithmetic —
// fresh residual allocation, linalg.SolveCholesky on the stored factor —
// as the bitwise ground truth the Scorer must match.
func referenceLogLikelihoods(t *Templates, tr trace.Trace) (map[int]float64, error) {
	f := Extract(tr, t.POIs)
	out := make(map[int]float64, len(t.classes))
	d := float64(len(t.POIs))
	resid := make([]float64, len(f))
	for _, c := range t.classes {
		for i := range f {
			resid[i] = f[i] - c.mean[i]
		}
		x, err := linalg.SolveCholesky(t.chol, resid)
		if err != nil {
			return nil, err
		}
		mahal := linalg.Dot(resid, x)
		out[c.label] = -0.5 * (mahal + t.logDet + d*math.Log(2*math.Pi))
	}
	return out, nil
}

func trainedScorerFixture(t *testing.T) (*Templates, *trace.Set) {
	t.Helper()
	train := synthSet(7, []int{-3, -1, 0, 2, 5}, 60, 24, 0.08)
	tmpl, err := BuildTemplates(train, DefaultTemplateOptions())
	if err != nil {
		t.Fatal(err)
	}
	test := synthSet(99, []int{-3, -1, 0, 2, 5}, 8, 24, 0.08)
	return tmpl, test
}

// TestScorerBitwiseIdenticalToReference: log-likelihoods, classifications
// and posteriors from the reusable Scorer must equal the historical
// per-call path to the last bit.
func TestScorerBitwiseIdenticalToReference(t *testing.T) {
	tmpl, test := trainedScorerFixture(t)
	s := tmpl.NewScorer()
	for i, tr := range test.Traces {
		want, err := referenceLogLikelihoods(tmpl, tr)
		if err != nil {
			t.Fatal(err)
		}
		ll, err := s.ScoreTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tmpl.LogLikelihoods(tr)
		if err != nil {
			t.Fatal(err)
		}
		for ci := range tmpl.classes {
			l := tmpl.classes[ci].label
			if math.Float64bits(want[l]) != math.Float64bits(ll[ci]) {
				t.Fatalf("trace %d: scorer ll[%d] = %x, want %x",
					i, l, math.Float64bits(ll[ci]), math.Float64bits(want[l]))
			}
			if math.Float64bits(want[l]) != math.Float64bits(got[l]) {
				t.Fatalf("trace %d: LogLikelihoods[%d] drifted", i, l)
			}
		}
		// Posterior: same exp/normalize order as the historical softmax.
		wantPost := make(map[int]float64, len(want))
		max := math.Inf(-1)
		for _, v := range want {
			if v > max {
				max = v
			}
		}
		sum := 0.0
		for _, c := range tmpl.classes {
			e := math.Exp(want[c.label] - max)
			wantPost[c.label] = e
			sum += e
		}
		for l := range wantPost {
			wantPost[l] /= sum
		}
		gotPost, err := tmpl.Probabilities(tr)
		if err != nil {
			t.Fatal(err)
		}
		for l, v := range wantPost {
			if math.Float64bits(v) != math.Float64bits(gotPost[l]) {
				t.Fatalf("trace %d: posterior[%d] = %x, want %x",
					i, l, math.Float64bits(gotPost[l]), math.Float64bits(v))
			}
		}
		// Classification: first strict maximum in ascending class order.
		wantBest, wantLL := 0, math.Inf(-1)
		first := true
		for _, c := range tmpl.classes {
			if v := want[c.label]; first || v > wantLL {
				wantBest, wantLL = c.label, v
				first = false
			}
		}
		gotBest, err := tmpl.Classify(tr)
		if err != nil {
			t.Fatal(err)
		}
		if gotBest != wantBest {
			t.Fatalf("trace %d: Classify = %d, want %d", i, gotBest, wantBest)
		}
	}
}

// TestPosteriorValuesMatchesMapOracle: the dense posterior the attack
// consumes must equal the map-form softmax of Probabilities bit for bit,
// class by class in ascending label order.
func TestPosteriorValuesMatchesMapOracle(t *testing.T) {
	tmpl, test := trainedScorerFixture(t)
	s := tmpl.NewScorer()
	if s.Classes() != len(tmpl.Labels()) {
		t.Fatalf("Classes() = %d, want %d", s.Classes(), len(tmpl.Labels()))
	}
	dst := make([]float64, s.Classes())
	for i, tr := range test.Traces {
		want, err := tmpl.Probabilities(tr)
		if err != nil {
			t.Fatal(err)
		}
		ll, err := s.ScoreTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		s.PosteriorValues(ll, dst)
		for ci, p := range dst {
			l := s.Label(ci)
			if l != tmpl.Labels()[ci] {
				t.Fatalf("Label(%d) = %d, want %d", ci, l, tmpl.Labels()[ci])
			}
			if math.Float64bits(p) != math.Float64bits(want[l]) {
				t.Fatalf("trace %d: P(%d) = %x, want %x", i, l,
					math.Float64bits(p), math.Float64bits(want[l]))
			}
		}
	}
}

// FuzzScorerReference drives the Scorer's block path with arbitrary float
// patterns, NaN and ±Inf included, and requires every score to equal the
// per-class SolveCholesky reference bit for bit (any NaN matches any NaN).
func FuzzScorerReference(f *testing.F) {
	mk := func(vals ...float64) []byte {
		out := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
		}
		return out
	}
	f.Add(mk(0, 0.5, -0.5, 1, -1, 0.25, 0, 0.1))
	f.Add(mk(math.NaN(), math.Inf(1), math.Inf(-1), 0, 1))
	f.Add(mk(1e308, -1e308, 1e-308, 5e-324))
	f.Add([]byte{1, 2, 3})
	tmpl, err := BuildTemplates(synthSet(7, []int{-3, -1, 0, 2, 5}, 60, 24, 0.08), DefaultTemplateOptions())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := make(trace.Trace, 24)
		for i := range tr {
			if (i+1)*8 <= len(data) {
				tr[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
			}
		}
		want, err := referenceLogLikelihoods(tmpl, tr)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tmpl.NewScorer().ScoreTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		for ci, c := range tmpl.classes {
			if !sameScore(got[ci], want[c.label]) {
				t.Fatalf("class %d: score %x, want %x", c.label,
					math.Float64bits(got[ci]), math.Float64bits(want[c.label]))
			}
		}
	})
}

// TestScoreTracesLayouts: ScoreTraces must give every trace of a batch the
// per-class reference scores bit for bit, whatever the batch size, for each
// lane layout — four vectors per block (three classes), one block per
// vector (five), several blocks per vector (twenty) — so partial groups and
// partial blocks leave no trace behind.
func TestScoreTracesLayouts(t *testing.T) {
	var wide []int
	for l := -10; l < 10; l++ {
		wide = append(wide, l)
	}
	for _, labels := range [][]int{{-1, 0, 1}, {-3, -1, 0, 2, 5}, wide} {
		tmpl, err := BuildTemplates(synthSet(7, labels, 40, 24, 0.08), DefaultTemplateOptions())
		if err != nil {
			t.Fatal(err)
		}
		test := synthSet(99, labels, 1, 24, 0.08).Traces
		nc := len(labels)
		want := make([]float64, len(test)*nc)
		for v, tr := range test {
			ref, err := referenceLogLikelihoods(tmpl, tr)
			if err != nil {
				t.Fatal(err)
			}
			for ci, l := range tmpl.Labels() {
				want[v*nc+ci] = ref[l]
			}
		}
		s := tmpl.NewScorer()
		for _, n := range []int{1, 3, 5, len(test)} {
			ll := make([]float64, len(test)*nc)
			for v0 := 0; v0 < len(test); v0 += n {
				v1 := min(v0+n, len(test))
				if err := s.ScoreTraces(ll[v0*nc:v1*nc], test[v0:v1]); err != nil {
					t.Fatal(err)
				}
			}
			for i := range want {
				if math.Float64bits(ll[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%d classes batches of %d: trace %d class %d = %x, want %x",
						nc, n, i/nc, i%nc, math.Float64bits(ll[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
}

// TestScorerErrors covers the shape guards: a short trace is named by its
// index in the batch, and the range check holds a loaded template's POIs
// in any order.
func TestScorerErrors(t *testing.T) {
	tmpl, _ := trainedScorerFixture(t)
	s := tmpl.NewScorer()
	if _, err := s.ScoreTrace(make(trace.Trace, 2)); err == nil {
		t.Error("short trace should fail")
	}
	if _, err := s.ScoreVector(make([]float64, 1)); err == nil {
		t.Error("wrong feature width should fail")
	}
	nc := s.Classes()
	good := make(trace.Trace, 24)
	if err := s.ScoreTraces(make([]float64, nc), []trace.Trace{good, good}); err == nil {
		t.Error("score matrix for one trace should fail for two")
	}
	err := s.ScoreTraces(make([]float64, 2*nc), []trace.Trace{good, good[:3]})
	if err == nil || !strings.Contains(err.Error(), "trace 1 ") {
		t.Errorf("short second trace: error %v does not name trace 1", err)
	}
	unsorted := *tmpl
	unsorted.POIs = append([]int(nil), tmpl.POIs...)
	unsorted.POIs[0], unsorted.POIs[len(unsorted.POIs)-1] = unsorted.POIs[len(unsorted.POIs)-1], unsorted.POIs[0]
	short := make(trace.Trace, unsorted.POIs[0])
	if _, err := unsorted.NewScorer().ScoreTrace(short); err == nil {
		t.Error("trace ending before the first, largest POI should fail")
	}
}

// TestTemplatesPrecomputedStructures: training must leave the pooled
// covariance's Cholesky factor, its cached solve structures and a finite
// log-determinant equal to the factor's own.
func TestTemplatesPrecomputedStructures(t *testing.T) {
	tmpl, _ := trainedScorerFixture(t)
	d := len(tmpl.POIs)
	if tmpl.chol == nil || tmpl.chol.Rows != d || tmpl.chol.Cols != d || tmpl.fact == nil {
		t.Fatal("missing Cholesky factor")
	}
	if ld := tmpl.logDet; math.IsNaN(ld) || math.IsInf(ld, 0) {
		t.Fatalf("bad log-determinant %v", ld)
	}
	if math.Float64bits(tmpl.logDet) != math.Float64bits(tmpl.fact.LogDet()) {
		t.Fatalf("log-determinant %v, factor's %v", tmpl.logDet, tmpl.fact.LogDet())
	}
	// The stored log-determinant is that of Σ = L·Lᵀ.
	cov, err := tmpl.chol.Mul(tmpl.chol.Transpose())
	if err != nil {
		t.Fatal(err)
	}
	want, err := linalg.LogDetSPD(cov)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(want-tmpl.logDet) > 1e-8*math.Abs(want) {
		t.Fatalf("log-determinant %v, want %v", tmpl.logDet, want)
	}
}

// TestSerializationCarriesPrecomputed: a v3 round trip must preserve the
// Cholesky factor, the log-determinant and every class's label, count and
// mean bit for bit, and keep scoring bitwise identical.
func TestSerializationCarriesPrecomputed(t *testing.T) {
	tmpl, test := trainedScorerFixture(t)
	var buf bytes.Buffer
	if err := WriteTemplates(&buf, tmpl); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTemplates(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(tmpl.chol.Data, back.chol.Data) {
		t.Fatal("Cholesky factor drifted in the round trip")
	}
	if math.Float64bits(tmpl.logDet) != math.Float64bits(back.logDet) {
		t.Fatal("log-determinant drifted in the round trip")
	}
	if len(back.classes) != len(tmpl.classes) {
		t.Fatalf("%d classes back, want %d", len(back.classes), len(tmpl.classes))
	}
	for ci, c := range tmpl.classes {
		b := back.classes[ci]
		if b.label != c.label || b.count != c.count || !sameBits(b.mean, c.mean) {
			t.Fatalf("class %d: label/count/mean drifted in the round trip", ci)
		}
	}
	s1, s2 := tmpl.NewScorer(), back.NewScorer()
	for i, tr := range test.Traces {
		ll1, err := s1.ScoreTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		ll2, err := s2.ScoreTrace(tr)
		if err != nil {
			t.Fatal(err)
		}
		for ci := range ll1 {
			if math.Float64bits(ll1[ci]) != math.Float64bits(ll2[ci]) {
				t.Fatalf("trace %d: round-tripped score drifted at class %d", i, ci)
			}
		}
	}
}

// sameBits reports whether two float slices hold the same bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// writeTemplatesV2 encodes tmpl in the version-2 layout: a pooled flag in
// the header and, per class, the mean, the shared Cholesky factor, a d×d
// inverse covariance (zeros here) and the log-determinant.
func writeTemplatesV2(t *testing.T, tmpl *Templates) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString(templatesMagic)
	d := len(tmpl.POIs)
	put := func(v any) {
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range []uint32{2, 1, uint32(d), uint32(len(tmpl.classes))} {
		put(v)
	}
	for _, p := range tmpl.POIs {
		put(int32(p))
	}
	for _, c := range tmpl.classes {
		put(int32(c.label))
		put(uint32(c.count))
		put(c.mean)
		put(tmpl.chol.Data)
		put(make([]float64, d*d))
		put(tmpl.logDet)
	}
	return buf.Bytes()
}

// TestStaleTemplateVersionRejected: version-1 streams and complete
// version-2 streams must fail with ErrStaleTemplateVersion, naming the
// version they carry.
func TestStaleTemplateVersionRejected(t *testing.T) {
	var v1 bytes.Buffer
	v1.WriteString(templatesMagic)
	for _, v := range []uint32{1, 1, 4, 2} { // version 1, pooled, d=4, 2 classes
		binary.Write(&v1, binary.LittleEndian, v)
	}
	tmpl, _ := trainedScorerFixture(t)
	for version, stream := range map[int][]byte{1: v1.Bytes(), 2: writeTemplatesV2(t, tmpl)} {
		_, err := ReadTemplates(bytes.NewReader(stream))
		if !errors.Is(err, ErrStaleTemplateVersion) {
			t.Fatalf("version %d: want ErrStaleTemplateVersion, got %v", version, err)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("version %d", version)) {
			t.Fatalf("error should name the stale version %d: %v", version, err)
		}
	}
	// Future versions are a different failure, not "stale".
	var future bytes.Buffer
	future.WriteString(templatesMagic)
	for _, v := range []uint32{99, 4, 2} {
		binary.Write(&future, binary.LittleEndian, v)
	}
	_, err := ReadTemplates(&future)
	if err == nil || errors.Is(err, ErrStaleTemplateVersion) {
		t.Fatalf("future version should be unsupported, not stale: %v", err)
	}
}

func BenchmarkScoreTraceScorer(b *testing.B) {
	train := synthSet(7, []int{-3, -1, 0, 2, 5}, 60, 24, 0.08)
	tmpl, err := BuildTemplates(train, DefaultTemplateOptions())
	if err != nil {
		b.Fatal(err)
	}
	trs := train.Traces[:1]
	s := tmpl.NewScorer()
	ll := make([]float64, s.Classes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.ScoreTraces(ll, trs); err != nil {
			b.Fatal(err)
		}
	}
}
