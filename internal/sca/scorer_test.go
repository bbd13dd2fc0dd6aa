package sca

import (
	"bytes"
	"encoding/binary"
	"errors"
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
		x, err := linalg.SolveCholesky(c.chol, resid)
		if err != nil {
			return nil, err
		}
		mahal := linalg.Dot(resid, x)
		out[c.label] = -0.5 * (mahal + c.logDet + d*math.Log(2*math.Pi))
	}
	return out, nil
}

func trainedScorerFixture(t *testing.T, pooled bool) (*Templates, *trace.Set) {
	t.Helper()
	train := synthSet(7, []int{-3, -1, 0, 2, 5}, 60, 24, 0.08)
	opts := DefaultTemplateOptions()
	opts.Pooled = pooled
	tmpl, err := BuildTemplates(train, opts)
	if err != nil {
		t.Fatal(err)
	}
	test := synthSet(99, []int{-3, -1, 0, 2, 5}, 8, 24, 0.08)
	return tmpl, test
}

// TestScorerBitwiseIdenticalToReference: log-likelihoods, classifications
// and posteriors from the reusable Scorer must equal the historical
// per-call path to the last bit, for pooled and per-class covariances.
func TestScorerBitwiseIdenticalToReference(t *testing.T) {
	for _, pooled := range []bool{true, false} {
		tmpl, test := trainedScorerFixture(t, pooled)
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
					t.Fatalf("pooled=%v trace %d: scorer ll[%d] = %x, want %x",
						pooled, i, l, math.Float64bits(ll[ci]), math.Float64bits(want[l]))
				}
				if math.Float64bits(want[l]) != math.Float64bits(got[l]) {
					t.Fatalf("pooled=%v trace %d: LogLikelihoods[%d] drifted", pooled, i, l)
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
					t.Fatalf("pooled=%v trace %d: posterior[%d] = %x, want %x",
						pooled, i, l, math.Float64bits(gotPost[l]), math.Float64bits(v))
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
				t.Fatalf("pooled=%v trace %d: Classify = %d, want %d", pooled, i, gotBest, wantBest)
			}
		}
	}
}

// TestPosteriorValuesMatchesMapOracle: the dense posterior the attack
// consumes must equal the map-form softmax of Probabilities bit for bit,
// class by class in ascending label order, for pooled and per-class
// covariances.
func TestPosteriorValuesMatchesMapOracle(t *testing.T) {
	for _, pooled := range []bool{true, false} {
		tmpl, test := trainedScorerFixture(t, pooled)
		s := tmpl.NewScorer()
		if s.Classes() != len(tmpl.Labels()) {
			t.Fatalf("pooled=%v: Classes() = %d, want %d", pooled, s.Classes(), len(tmpl.Labels()))
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
					t.Fatalf("pooled=%v: Label(%d) = %d, want %d", pooled, ci, l, tmpl.Labels()[ci])
				}
				if math.Float64bits(p) != math.Float64bits(want[l]) {
					t.Fatalf("pooled=%v trace %d: P(%d) = %x, want %x", pooled, i, l,
						math.Float64bits(p), math.Float64bits(want[l]))
				}
			}
		}
	}
}

// FuzzScorerReference drives the Scorer — the batched path over a pooled
// template and the class-by-class path over per-class covariances — with
// arbitrary float patterns, NaN and ±Inf included, and requires every score
// to equal the per-class SolveCholesky reference bit for bit (any NaN
// matches any NaN).
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
	var tmpls []*Templates
	for _, pooled := range []bool{true, false} {
		train := synthSet(7, []int{-3, -1, 0, 2, 5}, 60, 24, 0.08)
		opts := DefaultTemplateOptions()
		opts.Pooled = pooled
		tmpl, err := BuildTemplates(train, opts)
		if err != nil {
			f.Fatal(err)
		}
		tmpls = append(tmpls, tmpl)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := make(trace.Trace, 24)
		for i := range tr {
			if (i+1)*8 <= len(data) {
				tr[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
			}
		}
		for _, tmpl := range tmpls {
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
					t.Fatalf("pooled=%v class %d: score %x, want %x", tmpl.pooled, c.label,
						math.Float64bits(got[ci]), math.Float64bits(want[c.label]))
				}
			}
		}
	})
}

// TestScoreTracesLayouts: ScoreTraces must give every trace of a batch the
// per-class reference scores bit for bit, whatever the batch size, for each
// lane layout — four vectors per block (three classes), one block per
// vector (five), several blocks per vector (twenty) — and for per-class
// covariances, so partial groups and partial blocks leave no trace behind.
func TestScoreTracesLayouts(t *testing.T) {
	var wide []int
	for l := -10; l < 10; l++ {
		wide = append(wide, l)
	}
	for _, labels := range [][]int{{-1, 0, 1}, {-3, -1, 0, 2, 5}, wide} {
		for _, pooled := range []bool{true, false} {
			opts := DefaultTemplateOptions()
			opts.Pooled = pooled
			tmpl, err := BuildTemplates(synthSet(7, labels, 40, 24, 0.08), opts)
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
						t.Fatalf("%d classes pooled=%v batches of %d: trace %d class %d = %x, want %x",
							nc, pooled, n, i/nc, i%nc, math.Float64bits(ll[i]), math.Float64bits(want[i]))
					}
				}
			}
		}
	}
}

// TestScorerErrors covers the shape guards: a short trace is named by its
// index in the batch, and the range check holds a loaded template's POIs
// in any order.
func TestScorerErrors(t *testing.T) {
	tmpl, _ := trainedScorerFixture(t, true)
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

// TestTemplatesPrecomputedStructures: training must leave a usable inverse
// covariance and log-determinant on every class, and the pooled covariance
// must share one inverse across classes.
func TestTemplatesPrecomputedStructures(t *testing.T) {
	tmpl, _ := trainedScorerFixture(t, true)
	labels := tmpl.Labels()
	first := tmpl.InverseCovariance(labels[0])
	if first == nil {
		t.Fatal("missing inverse covariance")
	}
	d := len(tmpl.POIs)
	for _, l := range labels {
		inv := tmpl.InverseCovariance(l)
		if inv == nil || inv.Rows != d || inv.Cols != d {
			t.Fatalf("label %d: bad inverse covariance", l)
		}
		if inv != first {
			t.Fatalf("pooled templates should share one inverse covariance")
		}
		if ld := tmpl.ClassLogDet(l); math.IsNaN(ld) || math.IsInf(ld, 0) {
			t.Fatalf("label %d: bad log-determinant %v", l, ld)
		}
	}
	// Σ · Σ⁻¹ ≈ I, with Σ reconstructed from the stored factor.
	c := tmpl.classes[0]
	cov, err := c.chol.Mul(c.chol.Transpose())
	if err != nil {
		t.Fatal(err)
	}
	prod, err := cov.Mul(first)
	if err != nil {
		t.Fatal(err)
	}
	id := linalg.Identity(d)
	for i, v := range prod.Data {
		if math.Abs(v-id.Data[i]) > 1e-8 {
			t.Fatalf("|Σ·Σ⁻¹ − I| = %g at entry %d", math.Abs(v-id.Data[i]), i)
		}
	}
	if tmpl.InverseCovariance(12345) != nil {
		t.Error("unknown label should return nil inverse")
	}
	if !math.IsNaN(tmpl.ClassLogDet(12345)) {
		t.Error("unknown label should return NaN log-det")
	}
}

// TestSerializationCarriesPrecomputed: a v2 round-trip must preserve the
// inverse covariance and log-determinant bit for bit and keep scoring
// bitwise identical. A pooled stream repeats the shared covariance per
// class; loading it must rebuild one shared factor, inverse and
// log-determinant, as training does, so the loaded set scores through the
// batched path.
func TestSerializationCarriesPrecomputed(t *testing.T) {
	for _, pooled := range []bool{false, true} {
		tmpl, test := trainedScorerFixture(t, pooled)
		var buf bytes.Buffer
		if err := WriteTemplates(&buf, tmpl); err != nil {
			t.Fatal(err)
		}
		back, err := ReadTemplates(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range tmpl.Labels() {
			a, b := tmpl.InverseCovariance(l), back.InverseCovariance(l)
			if b == nil || a.Rows != b.Rows || a.Cols != b.Cols {
				t.Fatalf("pooled=%v label %d: inverse covariance lost in round trip", pooled, l)
			}
			for i := range a.Data {
				if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
					t.Fatalf("pooled=%v label %d: inverse covariance entry %d drifted", pooled, l, i)
				}
			}
			if math.Float64bits(tmpl.ClassLogDet(l)) != math.Float64bits(back.ClassLogDet(l)) {
				t.Fatalf("pooled=%v label %d: log-determinant drifted", pooled, l)
			}
		}
		s1, s2 := tmpl.NewScorer(), back.NewScorer()
		if pooled {
			first := &back.classes[0]
			for ci := range back.classes {
				if c := &back.classes[ci]; c.fact != first.fact || c.chol != first.chol || c.invCov != first.invCov {
					t.Fatalf("class %d: pooled load built its own covariance structures", ci)
				}
			}
			if s2.shared == nil {
				t.Fatal("loaded pooled templates do not take the batched scoring path")
			}
		}
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
					t.Fatalf("pooled=%v trace %d: round-tripped score drifted at class %d", pooled, i, ci)
				}
			}
		}
	}
}

// TestStaleTemplateVersionRejected: version-1 streams (no precomputed
// inverse covariance) must fail with ErrStaleTemplateVersion.
func TestStaleTemplateVersionRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(templatesMagic)
	for _, v := range []uint32{1, 1, 4, 2} { // version 1, pooled, d=4, 2 classes
		binary.Write(&buf, binary.LittleEndian, v)
	}
	_, err := ReadTemplates(&buf)
	if !errors.Is(err, ErrStaleTemplateVersion) {
		t.Fatalf("want ErrStaleTemplateVersion, got %v", err)
	}
	if err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("error should name the stale version: %v", err)
	}
	// Future versions are a different failure, not "stale".
	buf.Reset()
	buf.WriteString(templatesMagic)
	for _, v := range []uint32{99, 1, 4, 2} {
		binary.Write(&buf, binary.LittleEndian, v)
	}
	_, err = ReadTemplates(&buf)
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
