package core

import (
	"context"
	"fmt"
	"time"

	"reveal/internal/bfv"
	"reveal/internal/dbdd"
	"reveal/internal/obs"
	"reveal/internal/trace"
)

// Streaming-engine metric names, registered on the global obs registry by
// every StreamAttack and exported over /metrics by the service.
const (
	// MetricStreamIngestBytes counts RVTS wire bytes consumed by streaming
	// attacks (incremented by the drivers, which see the wire).
	MetricStreamIngestBytes = "reveal_stream_ingest_bytes_total"
	// MetricStreamTTFHSeconds is the time-to-first-hint histogram: stream
	// start to the first banked coefficient classification.
	MetricStreamTTFHSeconds = "reveal_stream_time_to_first_hint_seconds"
	// MetricStreamTTVSeconds is the time-to-verdict histogram: stream
	// start to early exit or final classification.
	MetricStreamTTVSeconds = "reveal_stream_time_to_verdict_seconds"
	// MetricStreamEarlyExit counts streaming attacks that stopped before
	// consuming the full trace because the banked hints reached the
	// target bikz.
	MetricStreamEarlyExit = "reveal_stream_early_exit_total"
)

// streamArenaRows is how many posterior rows a streaming attack allocates
// at once: its arena grows in blocks as coefficients arrive, so the first
// hint never waits on an n-row allocation and an early exit never pays for
// rows it did not reach.
const streamArenaRows = 64

// DefaultStreamCheckEvery is how many classified coefficients pass between
// bikz re-estimates when a target bikz is set. The stride is counted in
// coefficients — never wall clock or chunk sizes — so the early-exit point
// of a given trace prefix is identical regardless of how the stream was
// chunked.
const DefaultStreamCheckEvery = 16

// StreamAttackOptions configures one streaming single-trace attack.
type StreamAttackOptions struct {
	// Coefficients is the number of real coefficients n in the trace; the
	// trace must contain n+1 sampling peaks (the capture appends one
	// sentinel iteration, whose segment is discarded unclassified).
	Coefficients int
	// TargetBikz, when positive, enables early exit: after every
	// DefaultStreamCheckEvery classified coefficients the banked hints are
	// integrated into a DBDD instance and the attack stops once the
	// estimate is at or below the target. Requires Params.
	TargetBikz float64
	// Params identifies the attacked LWE instance for the bikz estimate
	// (required when TargetBikz > 0; Coefficients must not exceed
	// Params.N).
	Params *bfv.Parameters
	// checkEvery overrides the bikz re-estimate stride (0 means
	// DefaultStreamCheckEvery); tests vary it to move run boundaries.
	checkEvery int
}

// streamMinDistance is the segmenter's peak spacing, the batch path's
// value. The threshold is auto-calibrated over the first
// trace.DefaultCalibrationSamples samples.
const streamMinDistance = 8

// StreamVerdict summarizes how a streaming attack ended.
type StreamVerdict struct {
	// Classified is how many coefficients were classified (== Coefficients
	// unless the attack early-exited).
	Classified int
	// EarlyExit reports whether the target bikz was reached before the
	// full trace was consumed.
	EarlyExit bool
	// BaselineBikz and HintedBikz are the DBDD estimates without hints and
	// at the verdict (both 0 when no target bikz was set).
	BaselineBikz float64
	HintedBikz   float64
	// TimeToFirstHint and TimeToVerdict are wall-clock latencies from
	// stream start to the first classification and to the verdict.
	TimeToFirstHint time.Duration
	TimeToVerdict   time.Duration
	// SamplesIngested counts trace samples committed to the segmenter.
	SamplesIngested int
}

// StreamAttack classifies one error polynomial's trace as its samples
// arrive: each segment is classified by the pooled segScorer the moment
// its closing peak is confirmed, its posterior is banked, and — when a
// target bikz is set — the attack integrates each coefficient's hint
// incrementally and stops as soon as the estimate reaches the target.
//
// Determinism contract: over a complete trace with early exit disabled the
// result is byte-identical (Float64bits level) to the batch path
// (SegmentEncryptionTrace + AttackSegmentsCtx) at the same threshold,
// independent of chunk sizes; with early exit enabled, the exit point depends only on the
// classified-coefficient count, so equal trace prefixes produce equal
// banked results under any chunking.
type StreamAttack struct {
	cls  *CoefficientClassifier
	opts StreamAttackOptions
	seg  *trace.StreamSegmenter
	ss   *segScorer
	res  *AttackResult
	// arena is the unused tail of the current block of posterior rows.
	arena []float64

	inst         *dbdd.Instance
	baselineBikz float64
	hintedBikz   float64
	sinceCheck   int

	started   time.Time
	firstHint time.Duration
	verdictAt time.Duration
	verdict   *StreamVerdict

	samples int
	exited  bool
	sp      *obs.Span
}

// NewStreamAttack validates the options and prepares the incremental
// pipeline. Close must be called (directly or via Finish) to return the
// pooled scorer.
func NewStreamAttack(cls *CoefficientClassifier, opts StreamAttackOptions) (*StreamAttack, error) {
	return NewStreamAttackCtx(context.Background(), cls, opts)
}

// NewStreamAttackCtx is NewStreamAttack carrying the caller's trace
// identity for the stream_attack span.
func NewStreamAttackCtx(ctx context.Context, cls *CoefficientClassifier, opts StreamAttackOptions) (*StreamAttack, error) {
	if opts.Coefficients < 1 {
		return nil, fmt.Errorf("core: streaming attack needs at least 1 coefficient, got %d", opts.Coefficients)
	}
	if opts.checkEvery <= 0 {
		opts.checkEvery = DefaultStreamCheckEvery
	}
	sa := &StreamAttack{cls: cls, opts: opts, started: time.Now()}
	if opts.TargetBikz > 0 {
		if opts.Params == nil {
			return nil, fmt.Errorf("core: target bikz %.1f needs the attacked parameters", opts.TargetBikz)
		}
		if opts.Coefficients > opts.Params.N {
			return nil, fmt.Errorf("core: %d coefficients exceed the parameter degree %d",
				opts.Coefficients, opts.Params.N)
		}
		inst, err := LWEInstanceForParams(opts.Params)
		if err != nil {
			return nil, err
		}
		baseline, err := inst.EstimateBikz()
		if err != nil {
			return nil, err
		}
		if opts.TargetBikz >= baseline {
			return nil, fmt.Errorf("core: target bikz %.1f is not below the baseline %.1f",
				opts.TargetBikz, baseline)
		}
		sa.inst, sa.baselineBikz = inst, baseline
	}
	seg, err := trace.NewStreamSegmenter(trace.StreamSegmenterConfig{
		// One sentinel iteration rides at the end of every capture.
		Want:        opts.Coefficients + 1,
		MinDistance: streamMinDistance,
	})
	if err != nil {
		return nil, err
	}
	sa.seg = seg
	sa.ss = cls.scorer()
	// Probs grows by append: an n-entry slice up front would be the one
	// large allocation ahead of the first hint.
	sa.res = &AttackResult{
		Values: make([]int, 0, opts.Coefficients),
		Signs:  make([]int, 0, opts.Coefficients),
		Probs:  []Posterior{},
	}
	sa.sp = obs.StartSpanCtx(ctx, "stream_attack")
	return sa, nil
}

// EarlyExited reports whether the target bikz has been reached; once true,
// further Feed/Commit calls are no-ops and the caller should stop
// ingesting and call Finish.
func (sa *StreamAttack) EarlyExited() bool { return sa.exited }

// Classified returns how many coefficients have been classified so far.
func (sa *StreamAttack) Classified() int { return len(sa.res.Values) }

// Window returns a writable ingest buffer of n samples for zero-copy
// decode (see trace.StreamSegmenter.Window); pair with Commit.
func (sa *StreamAttack) Window(n int) trace.Trace { return sa.seg.Window(n) }

// Commit ingests the first n samples of the last Window, classifying every
// segment the new samples closed.
func (sa *StreamAttack) Commit(n int) error {
	if sa.exited || sa.verdict != nil {
		return nil
	}
	sa.samples += n
	segs, err := sa.seg.Commit(n)
	if err != nil {
		return err
	}
	return sa.onSegments(segs)
}

// Feed is the copying convenience form of Window+Commit.
func (sa *StreamAttack) Feed(chunk trace.Trace) error {
	if sa.exited || sa.verdict != nil {
		return nil
	}
	copy(sa.seg.Window(len(chunk)), chunk)
	return sa.Commit(len(chunk))
}

// onSegments classifies newly closed segments in order, in runs of
// segScorer.classify as the batch claim loop does, banking margins and
// (with a target set) hints. A run holds at most classifyClaim segments,
// whose rows are contiguous in the current arena block; the stream's
// first coefficient runs alone, so the first hint is banked as early as
// one classification allows. Hints are integrated one by one in
// coefficient order, and with a target set a run ends exactly where the
// next bikz check falls, so the early-exit point, the estimate and the
// banked prefix of a trace prefix never depend on chunk boundaries, and no
// coefficient past the exit is classified. An error stops the whole run:
// none of its coefficients is banked.
func (sa *StreamAttack) onSegments(segs []trace.Segment) error {
	labels := sa.cls.labels()
	width := len(labels)
	for len(segs) > 0 && !sa.exited {
		i := len(sa.res.Values)
		if i >= sa.opts.Coefficients {
			return nil // the sentinel segment is discarded unclassified
		}
		if len(sa.arena) == 0 {
			sa.arena = make([]float64, streamArenaRows*width)
		}
		n := min(len(segs), sa.opts.Coefficients-i, classifyClaim, len(sa.arena)/width)
		if i == 0 {
			n = 1
		}
		if sa.inst != nil {
			n = min(n, sa.opts.checkEvery-sa.sinceCheck)
		}
		rows := sa.arena[:n*width]
		// Values and Signs have capacity for every coefficient.
		values, signs := sa.res.Values[i:i+n], sa.res.Signs[i:i+n]
		if err := sa.ss.classify(i, segs[:n], rows, values, signs); err != nil {
			return err
		}
		sa.arena = sa.arena[n*width:]
		sa.res.Values, sa.res.Signs = sa.res.Values[:i+n], sa.res.Signs[:i+n]
		for j := 0; j < n; j++ {
			sa.res.Probs = append(sa.res.Probs, Posterior{Labels: labels, P: rows[j*width : (j+1)*width : (j+1)*width]})
		}
		if sa.firstHint == 0 {
			sa.firstHint = time.Since(sa.started)
		}
		segs = segs[n:]
		if sa.inst == nil {
			continue
		}
		for j, post := range sa.res.Probs[i:] {
			h := dbdd.HintFromProbabilities(labels, post.P)
			if err := sa.inst.IntegrateCoefficientHint(errorCoord(sa.opts.Params, i+j), h); err != nil {
				return fmt.Errorf("core: integrating hint %d: %w", i+j, err)
			}
		}
		sa.sinceCheck += n
		if sa.sinceCheck >= sa.opts.checkEvery {
			sa.sinceCheck = 0
			bikz, err := sa.inst.EstimateBikz()
			if err != nil {
				return fmt.Errorf("core: estimating bikz at coefficient %d: %w", i+n-1, err)
			}
			sa.hintedBikz = bikz
			sa.exited = bikz <= sa.opts.TargetBikz
		}
	}
	return nil
}

// Finish ends the stream: unless the attack early-exited, the segmenter is
// flushed (failing if the trace did not contain exactly n+1 peaks) and the
// remaining segments are classified. It returns the banked result — the
// full n coefficients, or the classified prefix on early exit — and the
// verdict, observes the stream metrics, and releases the pooled scorer.
func (sa *StreamAttack) Finish() (*AttackResult, *StreamVerdict, error) {
	if sa.verdict != nil {
		return sa.res, sa.verdict, nil
	}
	if !sa.exited {
		segs, err := sa.seg.Flush()
		if err != nil {
			sa.Close()
			return nil, nil, err
		}
		if err := sa.onSegments(segs); err != nil {
			sa.Close()
			return nil, nil, err
		}
		if !sa.exited && len(sa.res.Values) != sa.opts.Coefficients {
			sa.Close()
			return nil, nil, fmt.Errorf("core: stream closed after %d of %d coefficients",
				len(sa.res.Values), sa.opts.Coefficients)
		}
	}
	sa.verdictAt = time.Since(sa.started)
	sa.verdict = &StreamVerdict{
		Classified:      len(sa.res.Values),
		EarlyExit:       sa.exited,
		BaselineBikz:    sa.baselineBikz,
		HintedBikz:      sa.hintedBikz,
		TimeToFirstHint: sa.firstHint,
		TimeToVerdict:   sa.verdictAt,
		SamplesIngested: sa.samples,
	}
	reg := obs.Global().Registry()
	reg.Histogram(MetricStreamTTFHSeconds).Observe(sa.firstHint.Seconds())
	reg.Histogram(MetricStreamTTVSeconds).Observe(sa.verdictAt.Seconds())
	if sa.exited {
		reg.Counter(MetricStreamEarlyExit).Inc()
	}
	sa.Close()
	return sa.res, sa.verdict, nil
}

// Close releases the pooled scorer and ends the span; it is idempotent and
// implied by Finish, but must be called explicitly on abandoned streams.
func (sa *StreamAttack) Close() {
	if sa.ss != nil {
		sa.sp.AddItems(len(sa.res.Values))
		sa.sp.End()
		sa.cls.release(sa.ss)
		sa.ss = nil
	}
}
