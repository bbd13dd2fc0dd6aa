package core

import (
	"fmt"

	"reveal/internal/sca"
	"reveal/internal/trace"
)

// segScorer is a per-goroutine classification context over one trained
// CoefficientClassifier: one reusable sca.Scorer per template set (sign,
// positive values, negative values), a reusable tail-alignment buffer, and
// the sign posterior scratch. It computes each class log-likelihood exactly
// once per segment and writes the combined posterior in place into a
// caller-owned row, keeping every floating-point operation of the
// historical map-based path in the same order, so results are bitwise
// identical.
type segScorer struct {
	c              *CoefficientClassifier
	sign, pos, neg *sca.Scorer
	alignBuf       trace.Trace
	signPost       []float64
	// Indices of the −1/0/+1 labels in the sign scorer's class order
	// (−1 when the label is absent — its posterior then reads as 0,
	// matching the historical map lookup of a missing key).
	idxNeg, idxZero, idxPos int
	// zero is the row slot of label 0: the negative labels come first.
	zero int
}

func newSegScorer(c *CoefficientClassifier) *segScorer {
	ss := &segScorer{
		c:        c,
		sign:     c.Sign.NewScorer(),
		alignBuf: make(trace.Trace, c.Length),
		idxNeg:   -1, idxZero: -1, idxPos: -1,
	}
	ss.signPost = make([]float64, ss.sign.Classes())
	for ci := 0; ci < ss.sign.Classes(); ci++ {
		switch ss.sign.Label(ci) {
		case -1:
			ss.idxNeg = ci
		case 0:
			ss.idxZero = ci
		case 1:
			ss.idxPos = ci
		}
	}
	if c.Pos != nil {
		ss.pos = c.Pos.NewScorer()
	}
	if c.Neg != nil {
		ss.neg = c.Neg.NewScorer()
		ss.zero = ss.neg.Classes()
	}
	return ss
}

// tailAlignInto aligns a segment by its end without copying: segments at
// least Length long yield a view of their last Length samples; shorter
// ones are stretched into the reusable buffer with the exact interpolation
// of Trace.Resample.
func (ss *segScorer) tailAlignInto(seg trace.Trace) trace.Trace {
	if len(seg) >= ss.c.Length {
		return seg[len(seg)-ss.c.Length:]
	}
	return seg.ResampleInto(ss.alignBuf)
}

// classify classifies one per-coefficient sub-trace on the reusable scoring
// context: branch first (V1), then the value template of the recovered
// side (V2/V3), with the combined posterior P(v) = P(sign)·P(v | sign)
// written into row, which holds one entry per label of c.labels().
func (ss *segScorer) classify(seg trace.Trace, row []float64) (value, sign int, err error) {
	aligned := ss.tailAlignInto(seg)
	signLL, err := ss.sign.ScoreTrace(aligned)
	if err != nil {
		return 0, 0, fmt.Errorf("core: sign classification: %w", err)
	}
	ss.sign.PosteriorValues(signLL, ss.signPost)
	sign = ss.sign.ArgMaxLabel(signLL)

	postAt := func(idx int) float64 {
		if idx < 0 {
			return 0
		}
		return ss.signPost[idx]
	}
	// P(v) = P(sign)·P(v | sign), each value posterior written in place.
	row[ss.zero] = postAt(ss.idxZero)
	var posLL, negLL []float64
	if ss.pos != nil {
		posLL, err = ss.pos.ScoreTrace(aligned)
		if err != nil {
			return 0, 0, fmt.Errorf("core: positive value classification: %w", err)
		}
		post := row[ss.zero+1:]
		ss.pos.PosteriorValues(posLL, post)
		pSign := postAt(ss.idxPos)
		for k, p := range post {
			post[k] = pSign * p
		}
	}
	if ss.neg != nil {
		negLL, err = ss.neg.ScoreTrace(aligned)
		if err != nil {
			return 0, 0, fmt.Errorf("core: negative value classification: %w", err)
		}
		post := row[:ss.zero]
		ss.neg.PosteriorValues(negLL, post)
		nSign := postAt(ss.idxNeg)
		for k, p := range post {
			post[k] = nSign * p
		}
	}
	// Normalize in ascending label order — the row order (float addition
	// is order-sensitive).
	total := 0.0
	for _, p := range row {
		total += p
	}
	if total > 0 {
		for k := range row {
			row[k] /= total
		}
	}

	// Maximum-likelihood value within the recovered sign class, reusing the
	// already-computed value scores (the map-based path recomputed them).
	switch sign {
	case 1:
		if ss.pos == nil {
			return 0, 0, fmt.Errorf("core: no positive templates")
		}
		value = ss.pos.ArgMaxLabel(posLL)
	case -1:
		if ss.neg == nil {
			return 0, 0, fmt.Errorf("core: no negative templates")
		}
		value = ss.neg.ArgMaxLabel(negLL)
	}
	return value, sign, nil
}
