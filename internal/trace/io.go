package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
)

// Binary format: magic "RVTS", uint32 version, uint32 trace count, uint32
// samples per trace, then labels (int32 each), then samples (float64
// little-endian, trace-major).
const (
	setMagic   = "RVTS"
	setVersion = 1
)

// WriteSet serializes a validated Set.
func WriteSet(w io.Writer, s *Set) error {
	if err := s.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(setMagic); err != nil {
		return err
	}
	sampleCount := 0
	if len(s.Traces) > 0 {
		sampleCount = len(s.Traces[0])
	}
	for _, v := range []uint32{setVersion, uint32(len(s.Traces)), uint32(sampleCount)} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, l := range s.Labels {
		if err := binary.Write(bw, binary.LittleEndian, int32(l)); err != nil {
			return err
		}
	}
	buf := make([]byte, 8)
	for _, t := range s.Traces {
		for _, v := range t {
			binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
			if _, err := bw.Write(buf); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteCSV emits "index,value" rows for a single trace, the format the
// figure tooling plots.
func WriteCSV(w io.Writer, t Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("sample,power\n"); err != nil {
		return err
	}
	for i, v := range t {
		if _, err := bw.WriteString(strconv.Itoa(i)); err != nil {
			return err
		}
		if err := bw.WriteByte(','); err != nil {
			return err
		}
		if _, err := bw.WriteString(strconv.FormatFloat(v, 'g', 10, 64)); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteMultiCSV emits several labeled series side by side:
// "sample,label0,label1,..." padding shorter series with empty cells.
func WriteMultiCSV(w io.Writer, names []string, series []Trace) error {
	if len(names) != len(series) {
		return fmt.Errorf("trace: %d names for %d series", len(names), len(series))
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("sample"); err != nil {
		return err
	}
	for _, n := range names {
		if _, err := bw.WriteString("," + n); err != nil {
			return err
		}
	}
	if err := bw.WriteByte('\n'); err != nil {
		return err
	}
	maxLen := 0
	for _, s := range series {
		if len(s) > maxLen {
			maxLen = len(s)
		}
	}
	for i := 0; i < maxLen; i++ {
		if _, err := bw.WriteString(strconv.Itoa(i)); err != nil {
			return err
		}
		for _, s := range series {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
			if i < len(s) {
				if _, err := bw.WriteString(strconv.FormatFloat(s[i], 'g', 10, 64)); err != nil {
					return err
				}
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
