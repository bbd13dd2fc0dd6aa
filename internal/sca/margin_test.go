package sca

import (
	"math"
	"testing"
)

func TestTopMargin(t *testing.T) {
	cases := []struct {
		name   string
		probs  []float64
		margin float64
		ok     bool
	}{
		{"empty", nil, 0, false},
		{"single", []float64{0.9}, 0.9, true},
		{"two", []float64{0.7, 0.2}, 0.5, true},
		{"many", []float64{0.5, 0.3, 0.15, 0.05}, 0.2, true},
		{"ascending", []float64{0.05, 0.15, 0.3, 0.5}, 0.2, true},
		{"tied", []float64{0.4, 0.4, 0.2}, 0, true},
	}
	for _, tc := range cases {
		m, ok := TopMargin(tc.probs)
		if ok != tc.ok {
			t.Errorf("%s: ok = %v, want %v", tc.name, ok, tc.ok)
		}
		if math.Abs(m-tc.margin) > 1e-12 {
			t.Errorf("%s: margin = %v, want %v", tc.name, m, tc.margin)
		}
	}
}
