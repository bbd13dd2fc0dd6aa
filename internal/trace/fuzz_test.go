package trace_test

// FuzzReadSet: the binary trace-set decoder must never panic or
// over-allocate on adversarial bytes, and anything it accepts must be
// internally consistent and survive a bit-exact serialize/parse round trip.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"

	"reveal/internal/trace"
)

func validSetBytes(tb testing.TB) []byte {
	tb.Helper()
	set := &trace.Set{}
	set.Append(trace.Trace{1.5, -2.25, 0}, 1)
	set.Append(trace.Trace{0.125, 3, math.Inf(1)}, -1)
	var buf bytes.Buffer
	if err := trace.WriteSet(&buf, set); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func FuzzReadSet(f *testing.F) {
	valid := validSetBytes(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-5])                                // truncated payload
	f.Add(valid[:4])                                           // header only
	f.Add([]byte("RVTS"))                                      // magic, no header
	f.Add([]byte("NOPE00000000"))                              // wrong magic
	f.Add(append(append([]byte{}, valid[:16]...), 0xFF, 0xFF)) // lying header
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		set, err := trace.ReadSet(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := set.Validate(); err != nil {
			t.Fatalf("ReadSet accepted an inconsistent set: %v", err)
		}
		var buf bytes.Buffer
		if err := trace.WriteSet(&buf, set); err != nil {
			t.Fatalf("accepted set does not re-serialize: %v", err)
		}
		again, err := trace.ReadSet(&buf)
		if err != nil {
			t.Fatalf("round trip failed to parse: %v", err)
		}
		if len(again.Traces) != len(set.Traces) {
			t.Fatalf("round trip lost traces: %d -> %d", len(set.Traces), len(again.Traces))
		}
		for i := range set.Traces {
			if again.Labels[i] != set.Labels[i] {
				t.Fatalf("trace %d label %d -> %d", i, set.Labels[i], again.Labels[i])
			}
			for j := range set.Traces[i] {
				// Bit-level comparison so NaN payloads survive too.
				a := math.Float64bits(set.Traces[i][j])
				b := math.Float64bits(again.Traces[i][j])
				if a != b {
					t.Fatalf("trace %d sample %d: %x -> %x", i, j, a, b)
				}
			}
		}
	})
}

// stingyReader returns at most k bytes per Read call, torturing every
// io.ReadFull in the streaming decoder with short reads (k = 1 is the
// pathological byte-at-a-time transport).
type stingyReader struct {
	r io.Reader
	k int
}

func (s *stingyReader) Read(p []byte) (int, error) {
	if len(p) > s.k {
		p = p[:s.k]
	}
	return s.r.Read(p)
}

// FuzzStreamReader: chunk-boundary torture for the incremental RVTS
// decoder. Whatever the chunk size and however stingy the transport, the
// StreamReader must agree byte-for-byte with ReadSet — same accept/reject
// decision, same labels, same sample bits — and every premature end of
// payload must surface as the typed ErrTruncated.
func FuzzStreamReader(f *testing.F) {
	valid := validSetBytes(f)
	f.Add(valid, 7, 64)
	f.Add(valid, 1, 1)                              // 1-byte reads, 1-sample chunks
	f.Add(valid[:len(valid)-5], 2, 3)               // truncated payload
	f.Add(valid[:9], 1, 1)                          // truncated header
	f.Add(valid[:17], 3, 2)                         // truncated label table
	lying := append([]byte{}, valid[:8]...)         // magic + version
	lying = append(lying, 2, 0, 0, 0, 255, 0, 0, 0) // claims 2×255 samples
	lying = append(lying, valid[16:]...)            // ...over the short payload
	f.Add(lying, 5, 16)
	f.Add([]byte("RVTS"), 1, 4)
	f.Fuzz(func(t *testing.T, data []byte, readLimit, chunk int) {
		if readLimit < 1 {
			readLimit = 1
		}
		if chunk < 1 {
			chunk = 1
		}
		chunk %= 257
		if chunk == 0 {
			chunk = 256
		}
		refSet, refErr := trace.ReadSet(bytes.NewReader(data))

		sr, err := trace.NewStreamReader(&stingyReader{r: bytes.NewReader(data), k: readLimit})
		if err != nil {
			if refErr == nil {
				t.Fatalf("StreamReader rejected what ReadSet accepted: %v", err)
			}
			return
		}
		var (
			traces  []trace.Trace
			labels  []int
			readErr error
		)
		dst := make(trace.Trace, chunk)
		for {
			_, label, err := sr.NextTrace()
			if err == io.EOF {
				break
			}
			if err != nil {
				readErr = err
				break
			}
			labels = append(labels, label)
			var tr trace.Trace
			for {
				n, err := sr.ReadChunk(dst)
				if err == io.EOF {
					break
				}
				if err != nil {
					readErr = err
					break
				}
				tr = append(tr, dst[:n]...)
			}
			if readErr != nil {
				break
			}
			traces = append(traces, tr)
		}
		if readErr != nil {
			if !errors.Is(readErr, trace.ErrTruncated) {
				t.Fatalf("mid-stream failure is not ErrTruncated: %v", readErr)
			}
			if refErr == nil {
				t.Fatalf("StreamReader failed (%v) on data ReadSet accepted", readErr)
			}
			return
		}
		if refErr != nil {
			t.Fatalf("StreamReader accepted what ReadSet rejected: %v", refErr)
		}
		if len(traces) != len(refSet.Traces) {
			t.Fatalf("decoded %d traces, ReadSet decoded %d", len(traces), len(refSet.Traces))
		}
		for i := range traces {
			if labels[i] != refSet.Labels[i] {
				t.Fatalf("trace %d label %d, want %d", i, labels[i], refSet.Labels[i])
			}
			if len(traces[i]) != len(refSet.Traces[i]) {
				t.Fatalf("trace %d: %d samples, want %d", i, len(traces[i]), len(refSet.Traces[i]))
			}
			for j := range traces[i] {
				if math.Float64bits(traces[i][j]) != math.Float64bits(refSet.Traces[i][j]) {
					t.Fatalf("trace %d sample %d: bits differ from ReadSet", i, j)
				}
			}
		}
	})
}

// segmenterInput encodes a FuzzSegmenter input: the want offset,
// minDistance and chunk-size bytes, then the samples as little-endian
// float64 bits.
func segmenterInput(wantOffset, minDistance int8, chunk byte, t trace.Trace) []byte {
	data := []byte{byte(wantOffset), byte(minDistance), chunk}
	for _, v := range t {
		data = binary.LittleEndian.AppendUint64(data, math.Float64bits(v))
	}
	return data
}

// FuzzSegmenter: the one segmenter against the reference scan. On any
// samples — NaN and ±Inf included — SegmentEncryptionTrace must agree with
// FindPeaks + SegmentByPeaks at AutoThreshold(t, 0.5): the same
// error-or-not outcome, the same boundaries and bit-equal samples; and a
// StreamSegmenter fed in chunks, calibrating over the whole trace, must
// agree with both. (The threshold is not passed through Threshold, where 0
// means "calibrate over the default window".) want is the reference peak
// count plus a fuzzed offset, so offset 0 exercises the accepting path on
// any samples and other offsets the count checks, want < 1 included.
func FuzzSegmenter(f *testing.F) {
	f.Add(segmenterInput(0, 8, 7, trace.SpikedTrace(6, 12, 7)))
	f.Add(segmenterInput(-1, 8, 0, trace.SpikedTrace(6, 12, 7)))
	f.Add(segmenterInput(0, 8, 40, synthTrace(480, []int{1, 41, 80, 120, 167, 200, 239, 281, 320, 358, 397, 438})))
	f.Add(segmenterInput(0, 8, 63, synthTrace(320, []int{30, 64, 127, 192, 252, 258}))) // taller-peak swap across a chunk edge
	odd := trace.SpikedTrace(4, 9, 3)
	odd[5], odd[20], odd[31] = math.NaN(), math.Inf(1), math.Inf(-1)
	f.Add(segmenterInput(0, 4, 2, odd))
	f.Add(segmenterInput(0, 1, 0, trace.Trace{0, 10, 10, 0, 10, 0})) // plateau
	f.Add(segmenterInput(0, 4, 1, trace.Trace{0, 10, 0, 10, 0, 0}))  // tie within minDistance: the first stays
	f.Add(segmenterInput(-2, 8, 1, trace.SpikedTrace(2, 5, 1)))      // want 0
	f.Add(segmenterInput(1, 8, 1, nil))
	// Past the default 512-sample calibration window only the tall late
	// spike clears the whole-trace threshold.
	late := make(trace.Trace, 1024)
	for i := range late {
		late[i] = 0.1
		if i < 512 && i%32 == 16 {
			late[i] = 4
		}
	}
	late[900] = 40
	f.Add(segmenterInput(0, 8, 100, late))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		minDistance, chunk := int(int8(data[1])), 1+int(data[2])
		tr := make(trace.Trace, min((len(data)-3)/8, 4096))
		for i := range tr {
			tr[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[3+8*i:]))
		}
		peaks := trace.FindPeaks(tr, trace.AutoThreshold(tr, 0.5), minDistance)
		want := len(peaks) + int(int8(data[0]))

		var ref []trace.Segment
		if len(tr) > 0 && want >= 1 && len(peaks) == want {
			var err error
			if ref, err = trace.SegmentByPeaks(tr, peaks); err != nil {
				t.Fatalf("reference cut failed on its own peaks: %v", err)
			}
		}

		got, err := trace.SegmentEncryptionTrace(tr, want, minDistance)
		if (err == nil) != (ref != nil) {
			t.Fatalf("SegmentEncryptionTrace error %v, reference accepted: %v", err, ref != nil)
		}
		if err == nil {
			assertSegmentsEqual(t, ref, got)
		}

		// Calibrated over the whole trace, the chunked feed only scans once
		// the last chunk is in, so its window never slides. At the
		// reference's threshold given explicitly, it scans every chunk and
		// slides whenever a chunk finds no room. (A zero threshold means
		// auto-calibration, over the whole trace here too.)
		thr := trace.AutoThreshold(tr, 0.5)
		for _, cfg := range []trace.StreamSegmenterConfig{
			{Want: want, MinDistance: minDistance, CalibrationSamples: len(tr)},
			{Want: want, MinDistance: minDistance, Threshold: thr, CalibrationSamples: len(tr)},
		} {
			var streamed []trace.Segment
			sg, err := trace.NewStreamSegmenter(cfg)
			for off := 0; err == nil && off < len(tr); off += chunk {
				var out []trace.Segment
				out, err = sg.Feed(tr[off:min(off+chunk, len(tr))])
				streamed = cloneSegments(streamed, out)
			}
			if err == nil {
				var out []trace.Segment
				out, err = sg.Flush()
				streamed = cloneSegments(streamed, out)
			}
			if (err == nil) != (ref != nil) {
				t.Fatalf("chunked StreamSegmenter (threshold %v) error %v, reference accepted: %v", cfg.Threshold, err, ref != nil)
			}
			if err == nil {
				assertSegmentsEqual(t, ref, streamed)
			}
		}
	})
}
