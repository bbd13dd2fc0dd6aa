package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"reveal/internal/obs"
	"reveal/internal/trace"
)

// classifyClaim is how many consecutive coefficients one claim covers.
// Each claim costs one atomic add and one ctx check; 16 keeps that
// overhead negligible while a preempted worker holds back at most 16
// coefficients, so no goroutine idles behind a long contiguous shard. A
// claim is one run of segScorer.classify, so a sign template of at most
// four classes scores four of its coefficients per block.
const classifyClaim = 16

// AttackSegmentsCtx classifies every per-coefficient segment of an already
// segmented trace on the calling goroutine: AttackSegmentsParallel with
// one worker.
func (c *CoefficientClassifier) AttackSegmentsCtx(ctx context.Context, segs []trace.Segment) (*AttackResult, error) {
	return c.AttackSegmentsParallel(ctx, segs, 1)
}

// AttackSegmentsParallel is the one classification loop over a segment
// slice. The caller and workers−1 further goroutines (none when
// workers ≤ 1) each claim the next classifyClaim coefficients from a shared
// counter, check ctx once per claim, classify the claim as one run of
// segments, and write each result by index.
// Because every coefficient's classification is an independent pure
// function of its segment, the output is byte-identical for every worker
// count. Posteriors are written in place into one n×labels arena, each
// worker into the disjoint rows of its claims. The first error wins; it
// also exhausts the counter, so the other workers stop at their next claim.
func (c *CoefficientClassifier) AttackSegmentsParallel(ctx context.Context, segs []trace.Segment, workers int) (*AttackResult, error) {
	sp := obs.StartSpanCtx(ctx, "classify")
	sp.AddItems(len(segs))
	defer sp.End()
	labels := c.labels()
	width := len(labels)
	arena := make([]float64, len(segs)*width)
	res := &AttackResult{
		Values: make([]int, len(segs)),
		Signs:  make([]int, len(segs)),
		Probs:  make([]Posterior, len(segs)),
	}
	var (
		next     atomic.Int64
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			next.Store(int64(len(segs)))
		})
	}
	work := func() {
		// One pooled scoring context per worker: scratch buffers are
		// goroutine-local, results stay bitwise identical.
		ss := c.scorer()
		defer c.release(ss)
		for {
			lo := int(next.Add(classifyClaim)) - classifyClaim
			if lo >= len(segs) {
				return
			}
			if err := ctx.Err(); err != nil {
				fail(fmt.Errorf("core: classification canceled at coefficient %d: %w", lo, err))
				return
			}
			hi := min(lo+classifyClaim, len(segs))
			if err := ss.classify(lo, segs[lo:hi], arena[lo*width:hi*width], res.Values[lo:hi], res.Signs[lo:hi]); err != nil {
				fail(err)
				return
			}
			for i := lo; i < hi; i++ {
				res.Probs[i] = Posterior{Labels: labels, P: arena[i*width : (i+1)*width : (i+1)*width]}
			}
		}
	}
	claims := (len(segs) + classifyClaim - 1) / classifyClaim
	for w := 1; w < min(workers, claims); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return res, nil
}
