package sca

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"reveal/internal/linalg"
)

// Binary serialization of trained templates, so a profiling campaign can
// be run once and reused across attack sessions (the paper's profiling
// cost was 220,000 device executions — worth persisting).

const (
	templatesMagic = "SCTM"
	// templatesVersion 3 stores the pooled covariance's Cholesky factor and
	// log-determinant once per template set, then each class's label,
	// count and mean. Older streams are rejected with
	// ErrStaleTemplateVersion.
	templatesVersion = 3
)

// ErrStaleTemplateVersion marks a template stream written by an older
// format. Re-run profiling to regenerate the templates.
var ErrStaleTemplateVersion = errors.New("sca: stale template version (re-run profiling to regenerate the templates)")

// WriteTemplates serializes a trained template set: header, POIs, the
// pooled Cholesky factor and log-determinant, then each class's label,
// trace count and mean.
func WriteTemplates(w io.Writer, t *Templates) error {
	if t == nil || len(t.classes) == 0 {
		return fmt.Errorf("sca: cannot serialize empty templates")
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(templatesMagic); err != nil {
		return err
	}
	d := len(t.POIs)
	header := []uint32{templatesVersion, uint32(d), uint32(len(t.classes))}
	for _, v := range header {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, p := range t.POIs {
		if err := binary.Write(bw, binary.LittleEndian, int32(p)); err != nil {
			return err
		}
	}
	writeFloats := func(fs ...float64) error {
		for _, f := range fs {
			if err := binary.Write(bw, binary.LittleEndian, math.Float64bits(f)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := writeFloats(t.chol.Data...); err != nil {
		return err
	}
	if err := writeFloats(t.logDet); err != nil {
		return err
	}
	for _, c := range t.classes {
		if err := binary.Write(bw, binary.LittleEndian, int32(c.label)); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(c.count)); err != nil {
			return err
		}
		if err := writeFloats(c.mean...); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// readChunk bounds the up-front allocation of every float array read from a
// template stream: arrays grow as their values arrive, so a header that
// claims a huge dimension fails on the missing bytes, not on a giant
// allocation.
const readChunk = 4096

// ReadTemplates deserializes a template set written by WriteTemplates. The
// cached triangular-solve structures are rebuilt from the stored Cholesky
// factor and the log-determinant is loaded as written, so a round-tripped
// template scores bitwise identically to the original. A pooled covariance
// record that contradicts itself (see checkFactor) is rejected.
func ReadTemplates(r io.Reader) (*Templates, error) {
	br := bufio.NewReader(r)
	read := func(field string, v any) error {
		if err := binary.Read(br, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("sca: reading %s: %w", field, err)
		}
		return nil
	}
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("sca: reading magic: %w", err)
	}
	if string(magic) != templatesMagic {
		return nil, fmt.Errorf("sca: bad magic %q", magic)
	}
	var version, d, nClasses uint32
	if err := read("version", &version); err != nil {
		return nil, err
	}
	if version != templatesVersion {
		if version < templatesVersion {
			return nil, fmt.Errorf("%w (got version %d, want %d)", ErrStaleTemplateVersion, version, templatesVersion)
		}
		return nil, fmt.Errorf("sca: unsupported version %d", version)
	}
	if err := read("dimension", &d); err != nil {
		return nil, err
	}
	if err := read("class count", &nClasses); err != nil {
		return nil, err
	}
	if d == 0 || d > 4096 || nClasses == 0 || nClasses > 4096 {
		return nil, fmt.Errorf("sca: implausible header d=%d classes=%d", d, nClasses)
	}
	t := &Templates{POIs: make([]int, d)}
	for i := range t.POIs {
		var p int32
		if err := read("POI", &p); err != nil {
			return nil, err
		}
		if p < 0 {
			return nil, fmt.Errorf("sca: negative POI %d", p)
		}
		t.POIs[i] = int(p)
	}
	readFloats := func(n int, field string) ([]float64, error) {
		out := make([]float64, 0, min(n, readChunk))
		var b [8]byte
		for len(out) < n {
			if _, err := io.ReadFull(br, b[:]); err != nil {
				return nil, fmt.Errorf("sca: reading %s: %w", field, err)
			}
			out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(b[:])))
		}
		return out, nil
	}
	cholData, err := readFloats(int(d*d), "Cholesky factor")
	if err != nil {
		return nil, err
	}
	var ldBits uint64
	if err := read("log-determinant", &ldBits); err != nil {
		return nil, err
	}
	t.chol = &linalg.Matrix{Rows: int(d), Cols: int(d), Data: cholData}
	t.fact = linalg.CholFactorOf(t.chol)
	t.logDet = math.Float64frombits(ldBits)
	if err := t.checkFactor(); err != nil {
		return nil, err
	}
	for c := uint32(0); c < nClasses; c++ {
		var label int32
		var count uint32
		if err := read("class label", &label); err != nil {
			return nil, err
		}
		if err := read("class count", &count); err != nil {
			return nil, err
		}
		mean, err := readFloats(int(d), fmt.Sprintf("class %d mean", c))
		if err != nil {
			return nil, err
		}
		t.classes = append(t.classes, classTemplate{label: int(label), count: int(count), mean: mean})
	}
	return t, nil
}

// checkFactor rejects a pooled covariance record that no training run
// writes: a factor that is not lower-triangular with a positive diagonal,
// or a log-determinant other than the factor's own, bit for bit.
func (t *Templates) checkFactor() error {
	d := t.chol.Rows
	for i := 0; i < d; i++ {
		row := t.chol.Data[i*d : (i+1)*d]
		if !(row[i] > 0) {
			return fmt.Errorf("sca: inconsistent pooled covariance: factor diagonal %d is %v", i, row[i])
		}
		for j := i + 1; j < d; j++ {
			if row[j] != 0 {
				return fmt.Errorf("sca: inconsistent pooled covariance: factor entry (%d,%d) above the diagonal", i, j)
			}
		}
	}
	if math.Float64bits(t.logDet) != math.Float64bits(t.fact.LogDet()) {
		return fmt.Errorf("sca: inconsistent pooled covariance: log-determinant %v, factor's %v", t.logDet, t.fact.LogDet())
	}
	return nil
}
