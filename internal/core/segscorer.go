package core

import (
	"fmt"

	"reveal/internal/sca"
	"reveal/internal/trace"
)

// segScorer is a per-goroutine classification context over one trained
// CoefficientClassifier: one reusable sca.Scorer per template set (sign,
// positive values, negative values), reusable tail-alignment and score
// buffers for a run of segments, and the sign posterior scratch. It scores
// each template set once per run of segments and writes each combined
// posterior in place into a caller-owned row, keeping every floating-point
// operation of the historical map-based path in the same order, so results
// are bitwise identical.
type segScorer struct {
	c              *CoefficientClassifier
	sign, pos, neg *sca.Scorer
	// alignBuf holds the stretched copies of short segments, one Length
	// slot per segment of the run; aligned is the run's aligned views.
	alignBuf trace.Trace
	aligned  []trace.Trace
	// signLL, posLL and negLL are the run's score matrices, one row per
	// segment.
	signLL, posLL, negLL []float64
	signPost             []float64
	// Indices of the −1/0/+1 labels in the sign scorer's class order
	// (−1 when the label is absent — its posterior then reads as 0,
	// matching the historical map lookup of a missing key).
	idxNeg, idxZero, idxPos int
	// zero is the row slot of label 0: the negative labels come first.
	zero int
}

func newSegScorer(c *CoefficientClassifier) *segScorer {
	ss := &segScorer{
		c:      c,
		sign:   c.Sign.NewScorer(),
		idxNeg: -1, idxZero: -1, idxPos: -1,
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

// align aligns every segment of a run by its end without copying:
// segments at least Length long yield a view of their last Length samples;
// shorter ones are stretched into their slot of the reusable buffer with
// the exact interpolation of Trace.Resample.
func (ss *segScorer) align(segs []trace.Segment) []trace.Trace {
	l := ss.c.Length
	if len(ss.alignBuf) < len(segs)*l {
		ss.alignBuf = make(trace.Trace, len(segs)*l)
	}
	ss.aligned = ss.aligned[:0]
	for j, s := range segs {
		if len(s.Samples) >= l {
			ss.aligned = append(ss.aligned, s.Samples[len(s.Samples)-l:])
		} else {
			ss.aligned = append(ss.aligned, s.Samples.ResampleInto(ss.alignBuf[j*l:(j+1)*l]))
		}
	}
	return ss.aligned
}

// scores scores every aligned segment against one template set into buf,
// grown to len(trs) rows, and returns the score matrix.
func scores(s *sca.Scorer, buf *[]float64, trs []trace.Trace) ([]float64, error) {
	n := len(trs) * s.Classes()
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	ll := (*buf)[:n]
	return ll, s.ScoreTraces(ll, trs)
}

// classify classifies a run of per-coefficient segments, the first of
// which is coefficient first: it aligns them all, scores the sign template
// and the positive and negative value templates for all of them, then
// combines each coefficient's posterior — branch first (V1), then the value
// template of the recovered side (V2/V3), P(v) = P(sign)·P(v | sign) —
// into its row of rows (one entry per label of c.labels()) and its value
// and sign into values and signs. Every segment is aligned to Length
// samples, so a template that cannot score one cannot score any: such an
// error names the run's first coefficient; any other names its own.
func (ss *segScorer) classify(first int, segs []trace.Segment, rows []float64, values, signs []int) error {
	aligned := ss.align(segs)
	// The views point into the caller's traces; the pooled scorer must
	// not keep those alive.
	defer clear(aligned)
	signLL, err := scores(ss.sign, &ss.signLL, aligned)
	if err != nil {
		return fmt.Errorf("core: coefficient %d: sign classification: %w", first, err)
	}
	var posLL, negLL []float64
	if ss.pos != nil {
		if posLL, err = scores(ss.pos, &ss.posLL, aligned); err != nil {
			return fmt.Errorf("core: coefficient %d: positive value classification: %w", first, err)
		}
	}
	if ss.neg != nil {
		if negLL, err = scores(ss.neg, &ss.negLL, aligned); err != nil {
			return fmt.Errorf("core: coefficient %d: negative value classification: %w", first, err)
		}
	}
	width := len(ss.c.labels())
	for j := range segs {
		row := rows[j*width : (j+1)*width]
		value, sign, err := ss.combine(row, signLL, posLL, negLL, j)
		if err != nil {
			return fmt.Errorf("core: coefficient %d: %w", first+j, err)
		}
		values[j], signs[j] = value, sign
	}
	return nil
}

// combine writes segment j's posterior into row from the run's score
// matrices (posLL or negLL nil when the classifier lacks that side) and
// returns its maximum-likelihood value and sign.
func (ss *segScorer) combine(row, signLL, posLL, negLL []float64, j int) (value, sign int, err error) {
	ns := ss.sign.Classes()
	signLL = signLL[j*ns : (j+1)*ns]
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
	if ss.pos != nil {
		nc := ss.pos.Classes()
		posLL = posLL[j*nc : (j+1)*nc]
		post := row[ss.zero+1:]
		ss.pos.PosteriorValues(posLL, post)
		pSign := postAt(ss.idxPos)
		for k, p := range post {
			post[k] = pSign * p
		}
	}
	if ss.neg != nil {
		nc := ss.neg.Classes()
		negLL = negLL[j*nc : (j+1)*nc]
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
