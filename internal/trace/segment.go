package trace

import (
	"reveal/internal/obs"
)

// AutoThreshold picks a peak threshold between the trace's bulk level and
// its maximum: mean + frac·(max − mean). frac = 0.5 works well for the
// port-spike peaks the synthesizer produces.
func AutoThreshold(t Trace, frac float64) float64 {
	return t.Mean() + frac*(t.Max()-t.Mean())
}

// Segment is one per-coefficient sub-trace with its boundaries in the full
// trace.
type Segment struct {
	Start, End int // sample range [Start, End)
	Samples    Trace
}

// SegmentEncryptionTrace performs the full §III-C procedure: find the
// sampler-port peaks and cut the trace into exactly want sub-traces (one
// per coefficient). It returns an error when the count does not match,
// which signals mis-calibration of the threshold. The segments are views
// into t, each with its capacity clipped at its own end; t must not be
// modified while they are in use.
func SegmentEncryptionTrace(t Trace, want int, minDistance int) ([]Segment, error) {
	sp := obs.StartSpan("segment")
	defer sp.End()
	segs, err := segmentWhole(t, want, minDistance)
	if err != nil {
		return nil, err
	}
	sp.AddItems(len(segs))
	return segs, nil
}

// Segmenter is the handle form of SegmentEncryptionTrace without its
// "segment" span, for callers that time segmentation under their own span.
// It holds no state.
type Segmenter struct{}

// NewSegmenter returns a Segmenter; the coefficient hint is ignored.
func NewSegmenter(coeffHint int) *Segmenter { return &Segmenter{} }

// Segment cuts t into exactly want sub-traces, exactly as
// SegmentEncryptionTrace does.
func (*Segmenter) Segment(t Trace, want int, minDistance int) ([]Segment, error) {
	return segmentWhole(t, want, minDistance)
}

// segmentWhole runs one StreamSegmenter over the complete trace, fed once:
// the segmenter adopts t as its buffer instead of copying it, and its
// calibration window is the whole trace, so the threshold is exactly
// AutoThreshold(t, 0.5). The returned segments are views into t, which no
// segmentation step writes to.
func segmentWhole(t Trace, want int, minDistance int) ([]Segment, error) {
	sg, err := NewStreamSegmenter(StreamSegmenterConfig{
		Want:               want,
		MinDistance:        minDistance,
		CalibrationSamples: len(t),
	})
	if err != nil {
		return nil, err
	}
	n := min(want, len(t))
	sg.buf = t[:len(t):len(t)]
	sg.peaks = make([]int, 0, n)
	sg.out = make([]Segment, 0, n)
	return sg.Flush()
}
