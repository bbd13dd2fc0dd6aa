package core

import (
	"fmt"

	"reveal/internal/sca"
	"reveal/internal/trace"
)

// segScorer is a per-goroutine classification context over one trained
// CoefficientClassifier: one reusable sca.Scorer per template set (sign,
// positive values, negative values), reusable tail-alignment and score
// buffers for a run of segments, and the run's sign posteriors. It scores
// the sign template once per run and each value template once per run
// over the coefficients its sign leaves alive, and writes each combined
// posterior in place into a caller-owned row, keeping every
// floating-point operation of the historical map-based path in the same
// order, so results are bitwise identical wherever a ruled-out side's
// conditional posterior is finite (see classify).
type segScorer struct {
	c        *CoefficientClassifier
	sign     *sca.Scorer
	pos, neg valueSide
	// alignBuf holds the stretched copies of short segments, one Length
	// slot per segment of the run; aligned is the run's aligned views.
	alignBuf trace.Trace
	aligned  []trace.Trace
	// signLL and signPost are the run's sign scores and posteriors, one
	// row per segment.
	signLL, signPost []float64
	// idxZero is the index of label 0 in the sign scorer's class order
	// (−1 when the label is absent — its posterior then reads as 0,
	// matching the historical map lookup of a missing key).
	idxZero int
	// zero is the row slot of label 0: the negative labels come first.
	zero int
}

// valueSide is one value template set of a segScorer and its scores over
// one run of segments.
type valueSide struct {
	// s is nil when the classifier lacks the side; idx is the index of the
	// side's sign label (+1 or −1) in the sign scorer's class order, −1
	// when that label is absent, which rules the side out everywhere.
	s   *sca.Scorer
	idx int
	// live holds the aligned segments the side is scored over; at[j] is
	// segment j's row in ll, or −1 when its sign posterior rules the side
	// out.
	live []trace.Trace
	at   []int
	ll   []float64
}

func newSegScorer(c *CoefficientClassifier) *segScorer {
	ss := &segScorer{
		c:       c,
		sign:    c.Sign.NewScorer(),
		pos:     valueSide{idx: -1},
		neg:     valueSide{idx: -1},
		idxZero: -1,
	}
	for ci := 0; ci < ss.sign.Classes(); ci++ {
		switch ss.sign.Label(ci) {
		case -1:
			ss.neg.idx = ci
		case 0:
			ss.idxZero = ci
		case 1:
			ss.pos.idx = ci
		}
	}
	if c.Pos != nil {
		ss.pos.s = c.Pos.NewScorer()
	}
	if c.Neg != nil {
		ss.neg.s = c.Neg.NewScorer()
		ss.zero = ss.neg.s.Classes()
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

// score scores the side's template, in one call, over the aligned
// segments of the run whose sign posterior for the side (row j of
// signPost, ns entries) is not exactly 0.
func (vs *valueSide) score(aligned []trace.Trace, signPost []float64, ns int) error {
	if vs.s == nil {
		return nil
	}
	vs.live, vs.at = vs.live[:0], vs.at[:0]
	for j, tr := range aligned {
		if vs.idx < 0 || signPost[j*ns+vs.idx] == 0 {
			vs.at = append(vs.at, -1)
			continue
		}
		vs.at = append(vs.at, len(vs.live))
		vs.live = append(vs.live, tr)
	}
	var err error
	vs.ll, err = scores(vs.s, &vs.ll, vs.live)
	// The views point into the caller's traces, as aligned does.
	clear(vs.live)
	return err
}

// combine writes the side's conditional posteriors for segment j, each
// times pSign, into post. A ruled-out side (pSign exactly 0) was not
// scored: its entries are +0, the product 0·p for every finite p.
func (vs *valueSide) combine(post []float64, pSign float64, j int) {
	r := vs.at[j]
	if r < 0 {
		clear(post)
		return
	}
	nc := vs.s.Classes()
	vs.s.PosteriorValues(vs.ll[r*nc:(r+1)*nc], post)
	for k, p := range post {
		post[k] = pSign * p
	}
}

// value returns the maximum-likelihood label of the side for segment j.
func (vs *valueSide) value(j int) int {
	nc := vs.s.Classes()
	r := vs.at[j]
	return vs.s.ArgMaxLabel(vs.ll[r*nc : (r+1)*nc])
}

// classify classifies a run of per-coefficient segments, the first of
// which is coefficient first. It aligns them all, scores the sign template
// for all of them and turns each score row into a sign posterior, then
// scores the positive value template over only the coefficients whose
// P(+1) is not exactly 0 and the negative one over those whose P(−1) is
// not, and combines each coefficient's posterior — branch first (V1), then
// the value template of the recovered side (V2/V3),
// P(v) = P(sign)·P(v | sign) — into its row of rows (one entry per label
// of c.labels()) and its value and sign into values and signs. A
// ruled-out side's entries are +0, which is what P(sign)·P(v | sign)
// gives whenever P(v | sign) is finite, as it is for every captured
// trace; the recovered sign is never ruled out (its posterior is at least
// 1/classes, or NaN). Every segment is aligned to Length samples, so a
// template that cannot score one cannot score any: such an error names
// the run's first coefficient; any other names its own.
func (ss *segScorer) classify(first int, segs []trace.Segment, rows []float64, values, signs []int) error {
	aligned := ss.align(segs)
	// The views point into the caller's traces; the pooled scorer must
	// not keep those alive.
	defer clear(aligned)
	signLL, err := scores(ss.sign, &ss.signLL, aligned)
	if err != nil {
		return fmt.Errorf("core: coefficient %d: sign classification: %w", first, err)
	}
	ns := ss.sign.Classes()
	if cap(ss.signPost) < len(signLL) {
		ss.signPost = make([]float64, len(signLL))
	}
	signPost := ss.signPost[:len(signLL)]
	for j := range segs {
		ss.sign.PosteriorValues(signLL[j*ns:(j+1)*ns], signPost[j*ns:(j+1)*ns])
	}
	if err := ss.pos.score(aligned, signPost, ns); err != nil {
		return fmt.Errorf("core: coefficient %d: positive value classification: %w", first, err)
	}
	if err := ss.neg.score(aligned, signPost, ns); err != nil {
		return fmt.Errorf("core: coefficient %d: negative value classification: %w", first, err)
	}
	width := len(ss.c.labels())
	for j := range segs {
		row := rows[j*width : (j+1)*width]
		value, sign, err := ss.combine(row, signLL[j*ns:(j+1)*ns], signPost[j*ns:(j+1)*ns], j)
		if err != nil {
			return fmt.Errorf("core: coefficient %d: %w", first+j, err)
		}
		values[j], signs[j] = value, sign
	}
	return nil
}

// combine writes segment j's posterior into row from its sign scores and
// posterior and the value sides' scores, and returns its
// maximum-likelihood value and sign.
func (ss *segScorer) combine(row, signLL, signPost []float64, j int) (value, sign int, err error) {
	sign = ss.sign.ArgMaxLabel(signLL)
	postAt := func(idx int) float64 {
		if idx < 0 {
			return 0
		}
		return signPost[idx]
	}
	// P(v) = P(sign)·P(v | sign), each value posterior written in place.
	row[ss.zero] = postAt(ss.idxZero)
	if ss.pos.s != nil {
		ss.pos.combine(row[ss.zero+1:], postAt(ss.pos.idx), j)
	}
	if ss.neg.s != nil {
		ss.neg.combine(row[:ss.zero], postAt(ss.neg.idx), j)
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
		if ss.pos.s == nil {
			return 0, 0, fmt.Errorf("core: no positive templates")
		}
		value = ss.pos.value(j)
	case -1:
		if ss.neg.s == nil {
			return 0, 0, fmt.Errorf("core: no negative templates")
		}
		value = ss.neg.value(j)
	}
	return value, sign, nil
}
