package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"

	"reveal/internal/sca"
	"reveal/internal/trace"
)

// legacyClassification is a Classification with its posterior in map form.
type legacyClassification struct {
	Value, Sign int
	Probs       map[int]float64
}

// legacyProbabilities is the map-form template posterior of the
// pre-scorer pipeline: the per-class scores through a max-shifted softmax
// keyed by label, its normalizing sum taken in ascending class order, and
// the maximum-likelihood label.
func legacyProbabilities(tpl *sca.Templates, tr trace.Trace) (map[int]float64, int, error) {
	s := tpl.NewScorer()
	ll := make([]float64, s.Classes())
	if err := s.ScoreTraces(ll, []trace.Trace{tr}); err != nil {
		return nil, 0, err
	}
	max := math.Inf(-1)
	for _, v := range ll {
		if v > max {
			max = v
		}
	}
	probs := make(map[int]float64, len(ll))
	sum := 0.0
	for ci, v := range ll {
		e := math.Exp(v - max)
		probs[s.Label(ci)] = e
		sum += e
	}
	for l := range probs {
		probs[l] /= sum
	}
	return probs, s.ArgMaxLabel(ll), nil
}

// legacyClassifySegment replicates the pre-scorer classification pipeline —
// map-based posteriors, duplicate template evaluations and all — as the
// bitwise ground truth for the pooled segScorer path.
func legacyClassifySegment(c *CoefficientClassifier, seg trace.Trace) (*legacyClassification, error) {
	aligned := tailAlign(seg, c.Length)
	signProbs, sign, err := legacyProbabilities(c.Sign, aligned)
	if err != nil {
		return nil, fmt.Errorf("core: sign classification: %w", err)
	}
	probs := map[int]float64{0: signProbs[0]}
	if c.Pos != nil {
		posProbs, _, err := legacyProbabilities(c.Pos, aligned)
		if err != nil {
			return nil, err
		}
		for v, p := range posProbs {
			probs[v] = signProbs[1] * p
		}
	}
	if c.Neg != nil {
		negProbs, _, err := legacyProbabilities(c.Neg, aligned)
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
		_, value, err = legacyProbabilities(c.Pos, aligned)
	case -1:
		if c.Neg == nil {
			return nil, fmt.Errorf("core: no negative templates")
		}
		_, value, err = legacyProbabilities(c.Neg, aligned)
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

// ruledOutSites returns, for each segment at least Length samples long,
// the sample indices of the POIs that only a ruled-out value template
// reads: the segment's sign posterior gives that side exactly 0, and
// neither the sign template nor a live value template uses the POI. It
// also returns how many segments have such sites.
func ruledOutSites(t *testing.T, cls *CoefficientClassifier, segs []trace.Segment) ([][]int, int) {
	t.Helper()
	sign := cls.Sign.NewScorer()
	ll := make([]float64, sign.Classes())
	post := make([]float64, sign.Classes())
	sites := make([][]int, len(segs))
	n := 0
	for i, s := range segs {
		off := len(s.Samples) - cls.Length
		if off < 0 {
			continue // stretched: one sample feeds several aligned ones
		}
		if err := sign.ScoreTraces(ll, []trace.Trace{s.Samples[off:]}); err != nil {
			t.Fatal(err)
		}
		sign.PosteriorValues(ll, post)
		pSign := map[int]float64{}
		for ci := range post {
			pSign[sign.Label(ci)] = post[ci]
		}
		used := map[int]bool{}
		for _, p := range cls.Sign.POIs {
			used[p] = true
		}
		var out []*sca.Templates
		for _, side := range []struct {
			tpl   *sca.Templates
			label int
		}{{cls.Pos, 1}, {cls.Neg, -1}} {
			if pSign[side.label] == 0 {
				out = append(out, side.tpl)
				continue
			}
			for _, p := range side.tpl.POIs {
				used[p] = true
			}
		}
		for _, tpl := range out {
			for _, p := range tpl.POIs {
				if !used[p] {
					sites[i] = append(sites[i], off+p)
				}
			}
		}
		if len(sites[i]) > 0 {
			n++
		}
	}
	return sites, n
}

// TestRuledOutSideIgnored pins what scoring only the live value templates
// may change. On real low-noise and default segments it overwrites the
// samples at the POIs that only a ruled-out value template reads with
// NaN, +Inf and 1e300, which would make that template's conditional
// posterior NaN (and 0·NaN a NaN row). Every row, value and sign must keep
// the bits of the untouched segments, through the batch claim loop and
// through the stream's classification runs.
func TestRuledOutSideIgnored(t *testing.T) {
	ctx := context.Background()
	for _, fx := range []struct {
		name string
		load func(*testing.T, uint64) (*CoefficientClassifier, []trace.Segment)
	}{{"default", smallSegments}, {"low-noise", highAccuracySegments}} {
		cls, segs := fx.load(t, 12)
		want, err := cls.AttackSegmentsParallel(ctx, segs, 1)
		if err != nil {
			t.Fatal(err)
		}
		sites, n := ruledOutSites(t, cls, segs)
		if n < len(segs)/4 {
			t.Fatalf("%s: only %d of %d segments have a POI only a ruled-out template reads", fx.name, n, len(segs))
		}
		t.Logf("%s: %d of %d segments poisoned", fx.name, n, len(segs))
		for _, poison := range []float64{math.NaN(), math.Inf(1), 1e300} {
			bad := make([]trace.Segment, len(segs))
			for i, s := range segs {
				bad[i] = s
				if len(sites[i]) > 0 {
					bad[i].Samples = s.Samples.Clone()
					for _, k := range sites[i] {
						bad[i].Samples[k] = poison
					}
				}
			}
			t.Run(fmt.Sprintf("%s/%v/batch", fx.name, poison), func(t *testing.T) {
				got, err := cls.AttackSegmentsParallel(ctx, bad, 2)
				if err != nil {
					t.Fatal(err)
				}
				assertResultsBitIdentical(t, want, got)
			})
			t.Run(fmt.Sprintf("%s/%v/stream", fx.name, poison), func(t *testing.T) {
				sa, err := NewStreamAttack(cls, StreamAttackOptions{Coefficients: len(bad)})
				if err != nil {
					t.Fatal(err)
				}
				defer sa.Close()
				// Past the segmenter: a +Inf or 1e300 sample would be a
				// peak of its own.
				if err := sa.onSegments(bad); err != nil {
					t.Fatal(err)
				}
				assertResultsBitIdentical(t, want, sa.res)
			})
		}
	}
}
