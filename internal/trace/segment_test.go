package trace

import (
	"math"
	"strings"
	"testing"
)

// The segmentation entry points must reject degenerate inputs with errors,
// never panic: an attacker-facing tool sees malformed captures routinely
// (truncated scope buffers, mis-triggered acquisitions, patched kernels
// with no sampler-port peaks).

func TestSegmentEncryptionTraceEmptyTrace(t *testing.T) {
	for _, tr := range []Trace{nil, {}} {
		segs, err := SegmentEncryptionTrace(tr, 4, 8)
		if err == nil {
			t.Fatalf("empty trace: got %d segments, want error", len(segs))
		}
		if !strings.Contains(err.Error(), "empty") {
			t.Errorf("empty trace error = %q, want mention of empty", err)
		}
	}
}

func TestSegmentEncryptionTraceInvalidWant(t *testing.T) {
	tr := Trace{0, 0, 10, 0, 0}
	for _, want := range []int{0, -3} {
		if _, err := SegmentEncryptionTrace(tr, want, 8); err == nil {
			t.Errorf("want=%d: expected error", want)
		}
	}
}

func TestSegmentEncryptionTraceNoSentinelPeak(t *testing.T) {
	// A flat trace (e.g. the branch-free patched kernel with the port
	// spike suppressed) has no peaks above the auto threshold.
	flat := make(Trace, 200)
	for i := range flat {
		flat[i] = 1.0
	}
	if _, err := SegmentEncryptionTrace(flat, 4, 8); err == nil {
		t.Fatal("flat trace: expected segmentation error, got none")
	}
	// Monotone ramp: local maxima only at the boundary, which FindPeaks
	// excludes — still no peaks, still an error, no panic.
	ramp := make(Trace, 100)
	for i := range ramp {
		ramp[i] = float64(i)
	}
	if _, err := SegmentEncryptionTrace(ramp, 1, 8); err == nil {
		t.Fatal("ramp trace: expected segmentation error, got none")
	}
}

func TestSegmentEncryptionTraceSingleCoefficient(t *testing.T) {
	// One sampling peak: the single-coefficient capture must segment into
	// exactly one sub-trace running from the peak to the end.
	tr := make(Trace, 40)
	tr[8] = 10
	segs, err := SegmentEncryptionTrace(tr, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("got %d segments, want 1", len(segs))
	}
	if segs[0].Start != 8 || segs[0].End != len(tr) {
		t.Errorf("segment bounds [%d, %d), want [8, %d)", segs[0].Start, segs[0].End, len(tr))
	}
	if len(segs[0].Samples) != len(tr)-8 {
		t.Errorf("segment length %d, want %d", len(segs[0].Samples), len(tr)-8)
	}
	// And a count mismatch (asking for two coefficients) must error.
	if _, err := SegmentEncryptionTrace(tr, 2, 4); err == nil {
		t.Error("count mismatch: expected error, got none")
	}
}

func TestFindPeaksDegenerateInputs(t *testing.T) {
	// Tiny traces have no interior samples; must return no peaks, not
	// index out of range.
	for _, tr := range []Trace{nil, {}, {1}, {1, 2}} {
		if peaks := FindPeaks(tr, 0, 1); len(peaks) != 0 {
			t.Errorf("FindPeaks(%v) = %v, want none", tr, peaks)
		}
	}
}

func TestSegmentByPeaksNoPeaks(t *testing.T) {
	if _, err := SegmentByPeaks(Trace{1, 2, 3}, nil); err == nil {
		t.Fatal("no peaks: expected error")
	}
}

// SpikedTrace builds a synthetic encryption trace with coeffs port spikes
// separated by gap samples (plus jitter from the seed). It is exported for
// the trace_test fuzz seeds.
func SpikedTrace(coeffs, gap int, seed uint64) Trace {
	tr := make(Trace, 0, coeffs*(gap+1)+gap)
	s := seed
	noise := func() float64 {
		s = s*6364136223846793005 + 1442695040888963407
		return float64(int64(s>>40)) / float64(1<<25) * 0.05
	}
	for i := 0; i < gap; i++ {
		tr = append(tr, 0.1+noise())
	}
	for c := 0; c < coeffs; c++ {
		tr = append(tr, 4.0+noise())
		extra := int(s>>60) % 3
		for i := 0; i < gap+extra; i++ {
			tr = append(tr, 0.1+noise())
		}
	}
	return tr
}

// TestSegmenterMatchesSegmentEncryptionTrace: SegmentEncryptionTrace and
// the span-free Segmenter handle must both reproduce the reference
// whole-trace scan and cut — same boundaries, bitwise-equal samples — and
// hand out views of the input whose capacity ends at the segment end, so
// appending to one cannot overwrite its neighbour.
func TestSegmenterMatchesSegmentEncryptionTrace(t *testing.T) {
	sg := NewSegmenter(8)
	for rep := 0; rep < 5; rep++ {
		coeffs := 5 + rep
		tr := SpikedTrace(coeffs, 12, uint64(rep)*31+7)
		want, err := SegmentByPeaks(tr, FindPeaks(tr, AutoThreshold(tr, 0.5), 8))
		if err != nil {
			t.Fatalf("rep %d: reference: %v", rep, err)
		}
		if len(want) != coeffs {
			t.Fatalf("rep %d: reference found %d segments, want %d", rep, len(want), coeffs)
		}
		viaTrace, err := SegmentEncryptionTrace(tr, coeffs, 8)
		if err != nil {
			t.Fatalf("rep %d: SegmentEncryptionTrace: %v", rep, err)
		}
		viaHandle, err := sg.Segment(tr, coeffs, 8)
		if err != nil {
			t.Fatalf("rep %d: Segmenter: %v", rep, err)
		}
		for _, got := range [][]Segment{viaTrace, viaHandle} {
			if len(got) != len(want) {
				t.Fatalf("rep %d: %d segments, want %d", rep, len(got), len(want))
			}
			for k := range want {
				if got[k].Start != want[k].Start || got[k].End != want[k].End {
					t.Fatalf("rep %d seg %d: bounds [%d,%d), want [%d,%d)", rep, k,
						got[k].Start, got[k].End, want[k].Start, want[k].End)
				}
				s := got[k].Samples
				if len(s) != len(want[k].Samples) || cap(s) != len(s) {
					t.Fatalf("rep %d seg %d: len %d cap %d, want len = cap = %d",
						rep, k, len(s), cap(s), len(want[k].Samples))
				}
				if &s[0] != &tr[got[k].Start] {
					t.Fatalf("rep %d seg %d: samples copied, want a view of the trace", rep, k)
				}
				for i := range want[k].Samples {
					if math.Float64bits(s[i]) != math.Float64bits(want[k].Samples[i]) {
						t.Fatalf("rep %d seg %d sample %d drifted", rep, k, i)
					}
				}
			}
		}
	}
}

func TestSegmenterErrors(t *testing.T) {
	sg := NewSegmenter(4)
	if _, err := sg.Segment(Trace{}, 4, 8); err == nil {
		t.Error("empty trace should fail")
	}
	if _, err := sg.Segment(Trace{1, 2, 3}, 0, 8); err == nil {
		t.Error("want 0 should fail")
	}
	flat := make(Trace, 64)
	if _, err := sg.Segment(flat, 4, 8); err == nil {
		t.Error("flat trace should fail peak-count check")
	}
}

func BenchmarkSegmentEncryptionTrace(b *testing.B) {
	tr := SpikedTrace(65, 14, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SegmentEncryptionTrace(tr, 65, 8); err != nil {
			b.Fatal(err)
		}
	}
}
