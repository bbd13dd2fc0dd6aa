package trace

import "fmt"

// The reference segmentation the tests hold StreamSegmenter (and so
// SegmentEncryptionTrace, which is that segmenter fed once) to: a plain
// whole-trace peak scan and cut that shares no code with the segmenter.
// Being exported, both stay visible to the trace_test package.

// FindPeaks returns the indices of local maxima exceeding threshold, with
// at least minDistance samples between accepted peaks (the larger peak
// wins in a conflict). This is how the attacker locates the start of each
// coefficient's sampling (the paper's visible distribution-call peaks,
// Fig. 3a).
func FindPeaks(t Trace, threshold float64, minDistance int) []int {
	if minDistance < 1 {
		minDistance = 1
	}
	var peaks []int
	for i := 1; i < len(t)-1; i++ {
		if t[i] < threshold {
			continue
		}
		if t[i] < t[i-1] || t[i] < t[i+1] {
			continue
		}
		// Plateau handling: only take the first sample of a plateau.
		if t[i] == t[i-1] {
			continue
		}
		if len(peaks) > 0 && i-peaks[len(peaks)-1] < minDistance {
			// Keep the taller of the two.
			if t[i] > t[peaks[len(peaks)-1]] {
				peaks[len(peaks)-1] = i
			}
			continue
		}
		peaks = append(peaks, i)
	}
	return peaks
}

// SegmentByPeaks cuts the trace at each peak index: segment k covers
// [peak_k, peak_{k+1}) and the last segment runs to the end of the trace.
// It returns an error when fewer than one peak was found.
func SegmentByPeaks(t Trace, peaks []int) ([]Segment, error) {
	if len(peaks) == 0 {
		return nil, fmt.Errorf("trace: no peaks to segment by")
	}
	segs := make([]Segment, 0, len(peaks))
	for k, p := range peaks {
		end := len(t)
		if k+1 < len(peaks) {
			end = peaks[k+1]
		}
		if p >= end {
			return nil, fmt.Errorf("trace: invalid peak ordering at %d", k)
		}
		segs = append(segs, Segment{Start: p, End: end, Samples: t[p:end].Clone()})
	}
	return segs, nil
}
