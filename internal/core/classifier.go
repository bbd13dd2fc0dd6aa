package core

import (
	"context"
	"fmt"
	"sync"

	"reveal/internal/sca"
	"reveal/internal/trace"
)

// CoefficientClassifier is the trained single-trace attack: a sign (branch)
// classifier exploiting V1 plus per-sign value templates exploiting V2 (and
// V3 on the negative side, where the negation leaks a second Hamming
// weight).
type CoefficientClassifier struct {
	// Length is the common sub-trace length templates were trained at.
	Length int
	// MaxAbsValue bounds the coefficient magnitude covered by templates.
	MaxAbsValue int
	// Sign classifies the branch taken: labels −1, 0, +1.
	Sign *sca.Templates
	// Pos holds value templates for labels 1..MaxAbsValue.
	Pos *sca.Templates
	// Neg holds value templates for labels −MaxAbsValue..−1.
	Neg *sca.Templates

	// scorers pools per-goroutine classification contexts (template
	// scorers plus alignment and posterior scratch), so repeated attacks
	// over the same classifier reuse their buffers.
	scorers sync.Pool
	// labelSet is the label set of every Posterior, built once by labels.
	labelsOnce sync.Once
	labelSet   []int
}

// labels returns the ascending label set of the combined posterior: the
// negative value labels, 0, then the positive value labels (the label
// ranges Profile trains and ReadClassifier checks). It is built once and
// shared, read-only, by every Posterior the classifier produces.
func (c *CoefficientClassifier) labels() []int {
	c.labelsOnce.Do(func() {
		var labels []int
		if c.Neg != nil {
			labels = append(labels, c.Neg.Labels()...)
		}
		labels = append(labels, 0)
		if c.Pos != nil {
			labels = append(labels, c.Pos.Labels()...)
		}
		c.labelSet = labels
	})
	return c.labelSet
}

// scorer takes a reusable classification context from the pool (building
// one on first use); release returns it. The context embeds scratch
// buffers, so it must only ever serve one goroutine at a time.
func (c *CoefficientClassifier) scorer() *segScorer {
	if v := c.scorers.Get(); v != nil {
		return v.(*segScorer)
	}
	return newSegScorer(c)
}

func (c *CoefficientClassifier) release(ss *segScorer) { c.scorers.Put(ss) }

// tailAlign aligns a sub-trace by its end: the sampler-port read at the
// start of each iteration has data-dependent duration (the time-variant
// distribution call), but everything after it — the branch, the stores, the
// loop increment — is a fixed number of cycles from the segment end, so the
// last L samples are position-stable. Shorter segments are stretched.
func tailAlign(seg trace.Trace, length int) trace.Trace {
	if len(seg) >= length {
		return seg[len(seg)-length:].Clone()
	}
	return seg.Resample(length)
}

// AttackResult aggregates the single-trace attack over one error
// polynomial. The Probs rows of one attack share its label set and one
// arena.
type AttackResult struct {
	Values []int
	Signs  []int
	Probs  []Posterior
}

// AttackTrace segments a full sampling trace into n coefficients and
// classifies each — the complete single-trace attack of §III.
func (c *CoefficientClassifier) AttackTrace(tr trace.Trace, n int) (*AttackResult, error) {
	segs, err := trace.SegmentEncryptionTrace(tr, n, 8)
	if err != nil {
		return nil, err
	}
	return c.AttackSegmentsCtx(context.Background(), segs)
}

// Accuracy compares recovered values with ground truth.
func (r *AttackResult) Accuracy(truth []int64) (valueAcc, signAcc float64, err error) {
	if len(truth) != len(r.Values) {
		return 0, 0, fmt.Errorf("core: truth length %d vs %d recovered", len(truth), len(r.Values))
	}
	if len(truth) == 0 {
		return 0, 0, nil
	}
	valOK, signOK := 0, 0
	for i, v := range r.Values {
		if int64(v) == truth[i] {
			valOK++
		}
		if r.Signs[i] == sca.SignOf(int(truth[i])) {
			signOK++
		}
	}
	n := float64(len(truth))
	return float64(valOK) / n, float64(signOK) / n, nil
}
