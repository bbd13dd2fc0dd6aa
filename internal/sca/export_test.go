package sca

import (
	"fmt"
	"math"
	"sort"

	"reveal/internal/trace"
)

// The map-returning template API: the per-call scoring path that the
// block Scorer replaced, kept here as the map-form oracle the tests
// compare Scorer, ScoreVector and PosteriorValues against, and the
// one-vector cases of ScoreTraces.

// ScoreTrace returns the per-class log-likelihoods of one trace in class
// order: ScoreTraces with one row.
func (s *Scorer) ScoreTrace(tr trace.Trace) ([]float64, error) {
	ll := make([]float64, s.Classes())
	if err := s.ScoreTraces(ll, []trace.Trace{tr}); err != nil {
		return nil, err
	}
	return ll, nil
}

// ScoreVector scores an already-extracted POI feature vector through the
// block scoring ScoreTraces runs.
func (s *Scorer) ScoreVector(f []float64) ([]float64, error) {
	if len(f) != len(s.t.POIs) {
		return nil, fmt.Errorf("sca: feature vector of %d entries, want %d", len(f), len(s.t.POIs))
	}
	copy(s.feat, f)
	ll := make([]float64, s.Classes())
	if err := s.scoreFeatures(ll, 1); err != nil {
		return nil, err
	}
	return ll, nil
}

// Extract gathers the POI samples of a trace into a feature vector.
func Extract(tr trace.Trace, pois []int) []float64 {
	return ExtractInto(make([]float64, len(pois)), tr, pois)
}

// LogLikelihoods returns the Gaussian log-density of the trace under each
// class, keyed by label. It routes through a one-shot Scorer, so the
// arithmetic — cached-factor Cholesky solve, identical operation order — is
// exactly what the batch scoring path computes.
func (t *Templates) LogLikelihoods(tr trace.Trace) (map[int]float64, error) {
	s := t.NewScorer()
	ll, err := s.ScoreTrace(tr)
	if err != nil {
		return nil, err
	}
	out := make(map[int]float64, len(t.classes))
	for ci := range t.classes {
		out[t.classes[ci].label] = ll[ci]
	}
	return out, nil
}

// Classify returns the maximum-likelihood label.
func (t *Templates) Classify(tr trace.Trace) (int, error) {
	s := t.NewScorer()
	ll, err := s.ScoreTrace(tr)
	if err != nil {
		return 0, err
	}
	return s.ArgMaxLabel(ll), nil
}

// Probabilities converts log-likelihoods into a posterior over labels via
// a numerically-stable softmax (uniform prior), the per-measurement score
// table that Table II reports and the DBDD hints consume.
func (t *Templates) Probabilities(tr trace.Trace) (map[int]float64, error) {
	s := t.NewScorer()
	ll, err := s.ScoreTrace(tr)
	if err != nil {
		return nil, err
	}
	return s.Posteriors(ll), nil
}

// CombineProbabilities multiplies independent posteriors (e.g. the V2 value
// template and the V3 negation template) and renormalizes — the paper's
// combination of the second and third vulnerability.
func CombineProbabilities(ps ...map[int]float64) map[int]float64 {
	if len(ps) == 0 {
		return nil
	}
	labels := make([]int, 0, len(ps[0]))
	out := map[int]float64{}
	for l, v := range ps[0] {
		labels = append(labels, l)
		out[l] = v
	}
	sort.Ints(labels)
	for _, p := range ps[1:] {
		for l := range out {
			out[l] *= p[l]
		}
	}
	// Label-order accumulation keeps the normalization deterministic (float
	// addition is order-sensitive; map order is not).
	sum := 0.0
	for _, l := range labels {
		sum += out[l]
	}
	if sum <= 0 {
		// Degenerate: fall back to uniform over the label set.
		u := 1.0 / float64(len(out))
		for l := range out {
			out[l] = u
		}
		return out
	}
	for l := range out {
		out[l] /= sum
	}
	return out
}

// PosteriorInto converts scores into a softmax posterior keyed by label,
// writing into dst (which should be empty), replicating
// Templates.Probabilities' accumulation order exactly: the normalizing sum
// runs in ascending class order, never map order.
func (s *Scorer) PosteriorInto(ll []float64, dst map[int]float64) {
	max := math.Inf(-1)
	for _, v := range ll {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for ci := range s.t.classes {
		e := math.Exp(ll[ci] - max)
		dst[s.t.classes[ci].label] = e
		sum += e
	}
	for l := range dst {
		dst[l] /= sum
	}
}

// Posteriors converts scores into a freshly allocated posterior map.
func (s *Scorer) Posteriors(ll []float64) map[int]float64 {
	out := make(map[int]float64, len(ll))
	s.PosteriorInto(ll, out)
	return out
}
