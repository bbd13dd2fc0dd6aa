package main

import "testing"

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), which the benchmark's acceptance check
// uses to compute spreads.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{0.5, 9, 2.25, 7, 1, 3, 8, 6, 4, 10}, [3]float64{1.9375, 5, 8.25}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	def := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.2}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, c := range []struct {
		name string
		head []float64
		want string
	}{
		{"same", []float64{101, 100, 100, 99, 101, 99, 100, 100, 101, 100}, "same"},
		{"better", []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, "better"},
		{"worse", []float64{130, 131, 129, 130, 132, 128, 130, 131, 129, 130}, "worse"},
	} {
		if got := compareMetric(base, c.head, def, false).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	if got := compareMetric(noisy, base, def, false).verdict; got != "unresolved" {
		t.Errorf("noisy parent: verdict %q, want unresolved", got)
	}
}
