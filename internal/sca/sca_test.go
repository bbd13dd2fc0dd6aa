package sca

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"reveal/internal/sampler"
	"reveal/internal/trace"
)

// synthSet builds a labeled set where label k shifts the mean of a few
// samples; sigma controls the noise.
func synthSet(seed uint64, labels []int, perLabel, length int, sigma float64) *trace.Set {
	prng := sampler.NewXoshiro256(seed)
	s := &trace.Set{}
	for _, l := range labels {
		for i := 0; i < perLabel; i++ {
			tr := make(trace.Trace, length)
			for t := range tr {
				n, _ := sampler.NormFloat64(prng)
				tr[t] = n * sigma
			}
			// Informative samples at 3 and 7.
			tr[3] += float64(l) * 0.5
			tr[7] += float64(l*l) * 0.25
			s.Append(tr, l)
		}
	}
	return s
}

func TestSOSDFindsInformativeSamples(t *testing.T) {
	set := synthSet(1, []int{-2, -1, 0, 1, 2}, 50, 12, 0.05)
	scores, err := SOSD(set)
	if err != nil {
		t.Fatal(err)
	}
	// Samples 3 and 7 carry all the signal.
	best := SelectPOIs(scores, 2, 1)
	if len(best) != 2 || best[0] != 3 || best[1] != 7 {
		t.Errorf("POIs=%v want [3 7] (scores %v)", best, scores)
	}
}

func TestTTest(t *testing.T) {
	set := synthSet(2, []int{0, 1}, 80, 12, 0.05)
	tt, err := TTest(set, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tt[3] < tt[0]*5 {
		t.Errorf("t-test at informative sample not dominant: %v vs %v", tt[3], tt[0])
	}
	if _, err := TTest(set, 0, 99); err == nil {
		t.Error("missing label should fail")
	}
}

func TestSOSDErrors(t *testing.T) {
	if _, err := SOSD(&trace.Set{}); err == nil {
		t.Error("empty set should fail")
	}
	one := &trace.Set{}
	one.Append(trace.Trace{1, 2}, 0)
	if _, err := SOSD(one); err == nil {
		t.Error("single class should fail")
	}
	ragged := &trace.Set{Traces: []trace.Trace{{1}, {1, 2}}, Labels: []int{0, 1}}
	if _, err := SOSD(ragged); err == nil {
		t.Error("ragged set should fail")
	}
}

func TestSelectPOIsSpacing(t *testing.T) {
	scores := []float64{10, 9, 8, 1, 7}
	pois := SelectPOIs(scores, 3, 2)
	// Best is 0; 1 conflicts (spacing), 2 ok; 4 ok.
	want := []int{0, 2, 4}
	if len(pois) != 3 {
		t.Fatalf("pois=%v", pois)
	}
	for i := range want {
		if pois[i] != want[i] {
			t.Errorf("pois=%v want %v", pois, want)
		}
	}
	if got := SelectPOIs(scores, 0, 1); got != nil {
		t.Error("count 0 should give nil")
	}
}

func TestTemplateClassification(t *testing.T) {
	labels := []int{-3, -1, 0, 2, 5}
	train := synthSet(3, labels, 60, 16, 0.05)
	tmpl, err := BuildTemplates(train, DefaultTemplateOptions())
	if err != nil {
		t.Fatal(err)
	}
	got := tmpl.Labels()
	if len(got) != len(labels) {
		t.Fatalf("labels=%v", got)
	}
	// Fresh attack traces must classify correctly at this SNR.
	test := synthSet(4, labels, 20, 16, 0.05)
	conf := NewConfusion()
	for i, tr := range test.Traces {
		pred, err := tmpl.Classify(tr)
		if err != nil {
			t.Fatal(err)
		}
		conf.Add(test.Labels[i], pred)
	}
	if acc := conf.OverallAccuracy(); acc < 0.95 {
		t.Errorf("accuracy %v too low at high SNR", acc)
	}
}

func TestTemplateProbabilitiesSumToOne(t *testing.T) {
	train := synthSet(5, []int{0, 1, 2}, 50, 12, 0.1)
	tmpl, err := BuildTemplates(train, DefaultTemplateOptions())
	if err != nil {
		t.Fatal(err)
	}
	test := synthSet(6, []int{1}, 1, 12, 0.1)
	probs, err := tmpl.Probabilities(test.Traces[0])
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, p := range probs {
		if p < 0 || p > 1 {
			t.Errorf("probability %v out of range", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %v", sum)
	}
	if best, _ := tmpl.Classify(test.Traces[0]); probs[best] < probs[0]-1e-12 {
		t.Error("classified label should have max probability")
	}
}

func TestBuildTemplatesErrors(t *testing.T) {
	if _, err := BuildTemplates(&trace.Set{}, DefaultTemplateOptions()); err == nil {
		t.Error("empty set should fail")
	}
	set := synthSet(9, []int{0, 1}, 10, 12, 0.1)
	bad := DefaultTemplateOptions()
	bad.POICount = 0
	if _, err := BuildTemplates(set, bad); err == nil {
		t.Error("POICount 0 should fail")
	}
	if _, err := BuildTemplatesAtPOIs(set, []int{999}, DefaultTemplateOptions()); err == nil {
		t.Error("out-of-range POI should fail")
	}
	one := &trace.Set{}
	one.Append(trace.Trace{1, 2, 3}, 0)
	one.Append(trace.Trace{1, 2, 3}, 0)
	if _, err := BuildTemplatesAtPOIs(one, []int{0}, DefaultTemplateOptions()); err == nil {
		t.Error("single class should fail")
	}
}

func TestClassifyShortTrace(t *testing.T) {
	train := synthSet(10, []int{0, 1}, 30, 12, 0.1)
	tmpl, err := BuildTemplates(train, DefaultTemplateOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tmpl.Classify(trace.Trace{1, 2}); err == nil {
		t.Error("trace shorter than POI range should fail")
	}
}

func TestCombineProbabilities(t *testing.T) {
	a := map[int]float64{1: 0.5, 2: 0.5}
	b := map[int]float64{1: 0.9, 2: 0.1}
	c := CombineProbabilities(a, b)
	if math.Abs(c[1]-0.9) > 1e-12 || math.Abs(c[2]-0.1) > 1e-12 {
		t.Errorf("combine=%v", c)
	}
	// Degenerate zero product falls back to uniform.
	z := CombineProbabilities(map[int]float64{1: 1, 2: 0}, map[int]float64{1: 0, 2: 1})
	if math.Abs(z[1]-0.5) > 1e-12 {
		t.Errorf("degenerate combine=%v", z)
	}
	if CombineProbabilities() != nil {
		t.Error("no inputs should give nil")
	}
}

func TestConfusionMatrix(t *testing.T) {
	c := NewConfusion()
	for i := 0; i < 9; i++ {
		c.Add(1, 1)
	}
	c.Add(1, -1)
	c.Add(-1, -1)
	c.Add(0, 0)
	if c.Total(1) != 10 {
		t.Errorf("total=%d", c.Total(1))
	}
	if math.Abs(c.Accuracy(1)-0.9) > 1e-12 {
		t.Errorf("accuracy=%v", c.Accuracy(1))
	}
	if math.Abs(c.Rate(1, -1)-0.1) > 1e-12 {
		t.Errorf("rate=%v", c.Rate(1, -1))
	}
	if math.Abs(c.OverallAccuracy()-11.0/12) > 1e-12 {
		t.Errorf("overall=%v", c.OverallAccuracy())
	}
	// Sign collapse: the 1->-1 error is a sign error.
	if math.Abs(c.SignAccuracy()-11.0/12) > 1e-12 {
		t.Errorf("sign accuracy=%v", c.SignAccuracy())
	}
	labels := c.Labels()
	if len(labels) != 3 || labels[0] != -1 || labels[2] != 1 {
		t.Errorf("labels=%v", labels)
	}
	table := c.FormatTable(-1, 1)
	if !strings.Contains(table, "90.0") {
		t.Errorf("table missing 90.0:\n%s", table)
	}
	if c.Rate(99, 1) != 0 {
		t.Error("unseen label rate should be 0")
	}
	if NewConfusion().OverallAccuracy() != 0 || NewConfusion().SignAccuracy() != 0 {
		t.Error("empty confusion accuracies should be 0")
	}
}

func TestSignOf(t *testing.T) {
	if SignOf(5) != 1 || SignOf(-3) != -1 || SignOf(0) != 0 {
		t.Error("SignOf wrong")
	}
}

func BenchmarkClassify(b *testing.B) {
	train := synthSet(11, []int{-2, -1, 0, 1, 2}, 100, 32, 0.1)
	tmpl, err := BuildTemplates(train, DefaultTemplateOptions())
	if err != nil {
		b.Fatal(err)
	}
	tr := train.Traces[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tmpl.Classify(tr); err != nil {
			b.Fatal(err)
		}
	}
}

func TestTemplatesSerializationRoundTrip(t *testing.T) {
	train := synthSet(40, []int{-2, 0, 3}, 50, 16, 0.05)
	tmpl, err := BuildTemplates(train, DefaultTemplateOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTemplates(&buf, tmpl); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTemplates(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Same labels, same POIs, identical classifications and likelihoods.
	gl, wl := got.Labels(), tmpl.Labels()
	if len(gl) != len(wl) {
		t.Fatalf("labels=%v want %v", gl, wl)
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Fatalf("labels=%v want %v", gl, wl)
		}
	}
	test := synthSet(41, []int{-2, 0, 3}, 5, 16, 0.05)
	for _, tr := range test.Traces {
		a, err := tmpl.Classify(tr)
		if err != nil {
			t.Fatal(err)
		}
		b, err := got.Classify(tr)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("deserialized templates classify differently: %d vs %d", a, b)
		}
		la, err := tmpl.LogLikelihoods(tr)
		if err != nil {
			t.Fatal(err)
		}
		lb, err := got.LogLikelihoods(tr)
		if err != nil {
			t.Fatal(err)
		}
		for l := range la {
			if math.Abs(la[l]-lb[l]) > 1e-12 {
				t.Fatalf("likelihood drift for label %d", l)
			}
		}
	}
}

func TestTemplatesSerializationErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTemplates(&buf, nil); err == nil {
		t.Error("nil templates should fail")
	}
	if _, err := ReadTemplates(strings.NewReader("JUNK")); err == nil {
		t.Error("bad magic should fail")
	}
	if _, err := ReadTemplates(strings.NewReader("SC")); err == nil {
		t.Error("truncated magic should fail")
	}
}

func TestSecondOrderPreprocess(t *testing.T) {
	traces := []trace.Trace{{1, 2, 3}, {3, 2, 1}}
	// Means: {2,2,2}; centered: {-1,0,1} and {1,0,-1}.
	out, err := SecondOrderPreprocess(traces, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Features per trace: (0,1),(0,2),(1,2) = 3.
	if len(out[0]) != 3 {
		t.Fatalf("features=%d want 3", len(out[0]))
	}
	// Trace 0: (-1)(0), (-1)(1), (0)(1) = 0, -1, 0.
	if out[0][0] != 0 || out[0][1] != -1 || out[0][2] != 0 {
		t.Errorf("trace0 features=%v", out[0])
	}
	if out[1][1] != -1 {
		t.Errorf("trace1 features=%v", out[1])
	}
	// Validation.
	if _, err := SecondOrderPreprocess(traces[:1], 2); err == nil {
		t.Error("single trace should fail")
	}
	if _, err := SecondOrderPreprocess(traces, 0); err == nil {
		t.Error("window 0 should fail")
	}
	ragged := []trace.Trace{{1, 2}, {1}}
	if _, err := SecondOrderPreprocess(ragged, 1); err == nil {
		t.Error("ragged traces should fail")
	}
}
