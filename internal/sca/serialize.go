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
	// templatesVersion 2 adds the precomputed inverse covariance and keeps
	// the log-determinant, so loading a template never re-inverts a matrix.
	// Version-1 streams lack those fields and are rejected with
	// ErrStaleTemplateVersion.
	templatesVersion = 2
)

// ErrStaleTemplateVersion marks a template stream written by an older
// format that predates the precomputed scoring structures. Re-run
// profiling to regenerate the templates.
var ErrStaleTemplateVersion = errors.New("sca: stale template version (re-run profiling to regenerate with precomputed inverse covariance)")

// WriteTemplates serializes a trained template set, including the
// precomputed inverse covariance and log-determinant of each class.
func WriteTemplates(w io.Writer, t *Templates) error {
	if t == nil || len(t.classes) == 0 {
		return fmt.Errorf("sca: cannot serialize empty templates")
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(templatesMagic); err != nil {
		return err
	}
	pooled := uint32(0)
	if t.pooled {
		pooled = 1
	}
	d := len(t.POIs)
	header := []uint32{templatesVersion, pooled, uint32(d), uint32(len(t.classes))}
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
	writeFloats := func(fs []float64) error {
		for _, f := range fs {
			if err := binary.Write(bw, binary.LittleEndian, math.Float64bits(f)); err != nil {
				return err
			}
		}
		return nil
	}
	for _, c := range t.classes {
		if err := binary.Write(bw, binary.LittleEndian, int32(c.label)); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(c.count)); err != nil {
			return err
		}
		if err := writeFloats(c.mean); err != nil {
			return err
		}
		if err := writeFloats(c.chol.Data); err != nil {
			return err
		}
		if err := writeFloats(c.invCov.Data); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, math.Float64bits(c.logDet)); err != nil {
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
// factor; the inverse covariance and log-determinant are loaded as written,
// so a round-tripped template scores bitwise identically to the original.
//
// A pooled stream repeats the shared covariance for every class. Each copy
// must be bit-equal to the first class's, and all classes then share one
// factor, inverse and log-determinant — as after training, so the Scorer
// solves all classes in one call. A stream whose copies differ is rejected.
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
	var version, pooled, d, nClasses uint32
	for _, h := range []struct {
		field string
		v     *uint32
	}{{"version", &version}, {"pooled flag", &pooled}, {"dimension", &d}, {"class count", &nClasses}} {
		if err := read(h.field, h.v); err != nil {
			return nil, err
		}
	}
	if version != templatesVersion {
		if version < templatesVersion {
			return nil, fmt.Errorf("%w (got version %d, want %d)", ErrStaleTemplateVersion, version, templatesVersion)
		}
		return nil, fmt.Errorf("sca: unsupported version %d", version)
	}
	if pooled > 1 || d == 0 || d > 4096 || nClasses == 0 || nClasses > 4096 {
		return nil, fmt.Errorf("sca: implausible header pooled=%d d=%d classes=%d", pooled, d, nClasses)
	}
	t := &Templates{POIs: make([]int, d), pooled: pooled == 1}
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
	readFloats := func(n int, field string, c uint32) ([]float64, error) {
		out := make([]float64, 0, min(n, readChunk))
		var b [8]byte
		for len(out) < n {
			if _, err := io.ReadFull(br, b[:]); err != nil {
				return nil, fmt.Errorf("sca: reading class %d %s: %w", c, field, err)
			}
			out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(b[:])))
		}
		return out, nil
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
		mean, err := readFloats(int(d), "mean", c)
		if err != nil {
			return nil, err
		}
		cholData, err := readFloats(int(d*d), "Cholesky factor", c)
		if err != nil {
			return nil, err
		}
		invData, err := readFloats(int(d*d), "inverse covariance", c)
		if err != nil {
			return nil, err
		}
		var ldBits uint64
		if err := read("log-determinant", &ldBits); err != nil {
			return nil, err
		}
		ct := classTemplate{label: int(label), count: int(count), mean: mean}
		if t.pooled && c > 0 {
			f := &t.classes[0]
			if !sameBits(cholData, f.chol.Data) || !sameBits(invData, f.invCov.Data) || ldBits != math.Float64bits(f.logDet) {
				return nil, fmt.Errorf("sca: pooled template class %d carries a covariance that differs from class 0's", c)
			}
			ct.chol, ct.fact, ct.invCov, ct.logDet = f.chol, f.fact, f.invCov, f.logDet
		} else {
			ct.chol = &linalg.Matrix{Rows: int(d), Cols: int(d), Data: cholData}
			ct.fact = linalg.CholFactorOf(ct.chol)
			ct.invCov = &linalg.Matrix{Rows: int(d), Cols: int(d), Data: invData}
			ct.logDet = math.Float64frombits(ldBits)
		}
		t.classes = append(t.classes, ct)
	}
	return t, nil
}

// sameBits reports whether two equal-length float slices hold the same bit
// patterns.
func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
