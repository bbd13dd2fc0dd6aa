package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// ReadSet decodes a whole RVTS buffer in one pass with encoding/binary,
// independently of StreamReader: it is the reference decoder the fuzz and
// round-trip tests hold the streaming one to. It rejects what StreamReader
// rejects — bad magic or version, a header claiming more than 2^28
// samples, and a payload shorter than its header promises (wrapped in
// ErrTruncated) — and, like StreamReader, ignores bytes after the last
// trace.
func ReadSet(r io.Reader) (*Set, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	need := func(n uint64, what string) error {
		if uint64(len(data)) < n {
			return fmt.Errorf("trace: reading %s: %d of %d bytes: %w", what, len(data), n, ErrTruncated)
		}
		return nil
	}
	if err := need(4, "magic"); err != nil {
		return nil, err
	}
	if string(data[:4]) != setMagic {
		return nil, fmt.Errorf("trace: bad magic %q", data[:4])
	}
	if err := need(16, "header"); err != nil {
		return nil, err
	}
	version := binary.LittleEndian.Uint32(data[4:])
	count := uint64(binary.LittleEndian.Uint32(data[8:]))
	samples := uint64(binary.LittleEndian.Uint32(data[12:]))
	if version != setVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", version)
	}
	if count*samples > 1<<28 {
		return nil, fmt.Errorf("trace: header claims %d×%d samples, refusing", count, samples)
	}
	if err := need(16+4*count, "label table"); err != nil {
		return nil, err
	}
	if err := need(16+4*count+8*count*samples, "samples"); err != nil {
		return nil, err
	}
	s := &Set{}
	off := 16
	for i := uint64(0); i < count; i++ {
		s.Labels = append(s.Labels, int(int32(binary.LittleEndian.Uint32(data[off:]))))
		off += 4
	}
	for i := uint64(0); i < count; i++ {
		t := make(Trace, samples)
		for j := range t {
			t[j] = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
			off += 8
		}
		s.Traces = append(s.Traces, t)
	}
	return s, nil
}

// Accessors that only tests read.

// Feed copies one chunk into the buffer and returns the newly confirmed
// segments — the convenience form of Window+Commit.
func (sg *StreamSegmenter) Feed(chunk Trace) ([]Segment, error) {
	copy(sg.Window(len(chunk)), chunk)
	return sg.Commit(len(chunk))
}

// BufferedSamples returns how many samples have been committed so far:
// those slid out of the window and those still buffered.
func (sg *StreamSegmenter) BufferedSamples() int { return sg.base + len(sg.buf) }

// BufferCap returns the capacity of the segmenter's sample window.
func (sg *StreamSegmenter) BufferCap() int { return cap(sg.buf) }

// Traces returns the header's trace count.
func (sr *StreamReader) Traces() int { return sr.count }

// Samples returns the header's samples-per-trace count.
func (sr *StreamReader) Samples() int { return sr.samples }
