package core

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"reveal/internal/trace"
)

// legacyClassification is a Classification with its posterior in map form.
type legacyClassification struct {
	Value, Sign int
	Probs       map[int]float64
}

// legacyClassifySegment replicates the pre-scorer classification pipeline —
// map-based posteriors, duplicate template evaluations and all — as the
// bitwise ground truth for the pooled segScorer path.
func legacyClassifySegment(c *CoefficientClassifier, seg trace.Trace) (*legacyClassification, error) {
	aligned := tailAlign(seg, c.Length)
	signProbs, err := c.Sign.Probabilities(aligned)
	if err != nil {
		return nil, fmt.Errorf("core: sign classification: %w", err)
	}
	sign, err := c.Sign.Classify(aligned)
	if err != nil {
		return nil, err
	}
	probs := map[int]float64{0: signProbs[0]}
	if c.Pos != nil {
		posProbs, err := c.Pos.Probabilities(aligned)
		if err != nil {
			return nil, err
		}
		for v, p := range posProbs {
			probs[v] = signProbs[1] * p
		}
	}
	if c.Neg != nil {
		negProbs, err := c.Neg.Probabilities(aligned)
		if err != nil {
			return nil, err
		}
		for v, p := range negProbs {
			probs[v] = signProbs[-1] * p
		}
	}
	labels := make([]int, 0, len(probs))
	for v := range probs {
		labels = append(labels, v)
	}
	sort.Ints(labels)
	total := 0.0
	for _, v := range labels {
		total += probs[v]
	}
	if total > 0 {
		for v := range probs {
			probs[v] /= total
		}
	}
	value := 0
	switch sign {
	case 1:
		if c.Pos == nil {
			return nil, fmt.Errorf("core: no positive templates")
		}
		value, err = c.Pos.Classify(aligned)
	case -1:
		if c.Neg == nil {
			return nil, fmt.Errorf("core: no negative templates")
		}
		value, err = c.Neg.Classify(aligned)
	}
	if err != nil {
		return nil, err
	}
	return &legacyClassification{Value: value, Sign: sign, Probs: probs}, nil
}

// assertPosteriorBits fails unless the dense posterior of coefficient i
// holds exactly the labels of the map form, ascending, with
// Float64bits-equal probabilities.
func assertPosteriorBits(t *testing.T, i int, want map[int]float64, got Posterior) {
	t.Helper()
	if len(got.Labels) != len(want) || len(got.P) != len(want) {
		t.Fatalf("coefficient %d: %d labels and %d probabilities, want %d entries",
			i, len(got.Labels), len(got.P), len(want))
	}
	for k, v := range got.Labels {
		p, ok := want[v]
		if !ok || (k > 0 && v <= got.Labels[k-1]) {
			t.Fatalf("coefficient %d: labels %v, want the ascending keys of %v", i, got.Labels, want)
		}
		if math.Float64bits(p) != math.Float64bits(got.P[k]) {
			t.Fatalf("coefficient %d: P(%d) = %x, want %x (Float64bits)",
				i, v, math.Float64bits(got.P[k]), math.Float64bits(p))
		}
	}
}

// TestClassifySegmentBitwiseMatchesLegacy: the scorer-based classification
// must reproduce the historical algorithm to the last posterior bit, for
// every coefficient of a real captured encryption.
func TestClassifySegmentBitwiseMatchesLegacy(t *testing.T) {
	cls, cap, params := captureSmall(t, 21)
	segs, err := trace.SegmentEncryptionTrace(cap.TraceE2, params.N+1, 8)
	if err != nil {
		t.Fatal(err)
	}
	segs = segs[:params.N]
	for i, s := range segs {
		want, err := legacyClassifySegment(cls, s.Samples)
		if err != nil {
			t.Fatalf("coefficient %d: legacy: %v", i, err)
		}
		got, err := cls.ClassifySegment(s.Samples)
		if err != nil {
			t.Fatalf("coefficient %d: %v", i, err)
		}
		if got.Value != want.Value || got.Sign != want.Sign {
			t.Fatalf("coefficient %d: value/sign (%d,%d), want (%d,%d)",
				i, got.Value, got.Sign, want.Value, want.Sign)
		}
		assertPosteriorBits(t, i, want.Probs, got.Probs)
	}
}

// TestSegScorerMissingSide: a classifier without one value side must still
// classify the covered signs and fail cleanly on the missing one, exactly
// like the historical path.
func TestSegScorerMissingSide(t *testing.T) {
	cls, cap, params := captureSmall(t, 22)
	segs, err := trace.SegmentEncryptionTrace(cap.TraceE2, params.N+1, 8)
	if err != nil {
		t.Fatal(err)
	}
	segs = segs[:params.N]
	onlyPos := &CoefficientClassifier{
		Length: cls.Length, MaxAbsValue: cls.MaxAbsValue,
		Sign: cls.Sign, Pos: cls.Pos,
	}
	sawErr, sawOK := false, false
	for i, s := range segs {
		want, legacyErr := legacyClassifySegment(onlyPos, s.Samples)
		got, gotErr := onlyPos.ClassifySegment(s.Samples)
		if (legacyErr == nil) != (gotErr == nil) {
			t.Fatalf("error behavior diverged: legacy=%v new=%v", legacyErr, gotErr)
		}
		if gotErr != nil {
			sawErr = true
			continue
		}
		sawOK = true
		if got.Value != want.Value || got.Sign != want.Sign {
			t.Fatalf("value/sign (%d,%d), want (%d,%d)", got.Value, got.Sign, want.Value, want.Sign)
		}
		assertPosteriorBits(t, i, want.Probs, got.Probs)
	}
	if !sawOK {
		t.Error("expected at least one classifiable segment without negative templates")
	}
	_ = sawErr // negative coefficients may or may not appear at this scale
}
