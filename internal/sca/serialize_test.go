package sca

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
)

// sameScore reports whether two scores are bit-equal, counting any NaN as
// equal to any other: the batched and per-class paths perform the same
// operations, but a NaN's payload may depend on operand order.
func sameScore(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestReadTemplatesRejectsInconsistentPooled: a stream whose pooled
// covariance record contradicts itself — a log-determinant off by one
// mantissa bit, an entry above the factor's diagonal, a non-positive
// diagonal entry — is rejected.
func TestReadTemplatesRejectsInconsistentPooled(t *testing.T) {
	tmpl, _ := trainedScorerFixture(t)
	var buf bytes.Buffer
	if err := WriteTemplates(&buf, tmpl); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	d := len(tmpl.POIs)
	chol := len(templatesMagic) + 3*4 + 4*d // the factor follows the POIs
	entry := func(i, j int) int { return chol + 8*(i*d+j) }
	for name, perturb := range map[string]func(b []byte){
		"logdet":   func(b []byte) { b[chol+8*d*d] ^= 1 },
		"upper":    func(b []byte) { binary.LittleEndian.PutUint64(b[entry(0, 1):], math.Float64bits(0.5)) },
		"diagonal": func(b []byte) { binary.LittleEndian.PutUint64(b[entry(2, 2):], math.Float64bits(-1)) },
	} {
		bad := append([]byte(nil), good...)
		perturb(bad)
		if _, err := ReadTemplates(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "inconsistent pooled covariance") {
			t.Errorf("%s perturbed: want an inconsistent-pooled error, got %v", name, err)
		}
	}
	if _, err := ReadTemplates(bytes.NewReader(good)); err != nil {
		t.Fatalf("unperturbed stream: %v", err)
	}
}

// TestReadTemplatesLyingHeader: a 17 KB stream whose header claims d = 4096
// must fail on its missing bytes, naming the field, without first
// allocating the 134 MB the header promises.
func TestReadTemplatesLyingHeader(t *testing.T) {
	const d = 4096
	var buf bytes.Buffer
	buf.WriteString(templatesMagic)
	for _, v := range []uint32{templatesVersion, d, 2} {
		binary.Write(&buf, binary.LittleEndian, v)
	}
	for i := 0; i < d; i++ {
		binary.Write(&buf, binary.LittleEndian, int32(i))
	}
	buf.Write(make([]byte, 800)) // a sliver of the Cholesky factor
	if n := buf.Len(); n > 18<<10 {
		t.Fatalf("fixture is %d bytes, want under 18 KiB", n)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadTemplates(&buf)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated stream accepted")
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
		t.Fatalf("want a wrapped EOF, got %v", err)
	}
	if !strings.Contains(err.Error(), "Cholesky factor") {
		t.Fatalf("error should name the field being read: %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Fatalf("reading a 17 KB stream allocated %d MB", grew>>20)
	}
}

// FuzzReadTemplates: arbitrary bytes must never panic the template reader,
// and any stream it accepts must survive WriteTemplates/ReadTemplates with
// bit-equal scores on a few fixed feature vectors.
func FuzzReadTemplates(f *testing.F) {
	// Whole and half streams of a sign-shaped (3 classes, 3 POIs) and a
	// wider (6 classes, 5 POIs) template, the bare magic, and a v3 header
	// that claims d = 4096 over no data.
	for _, shape := range []struct {
		labels []int
		pois   int
	}{{[]int{-1, 0, 2}, 3}, {[]int{-3, -2, -1, 1, 2, 3}, 5}} {
		opts := DefaultTemplateOptions()
		opts.POICount = shape.pois
		tmpl, err := BuildTemplates(synthSet(3, shape.labels, 20, 12, 0.1), opts)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteTemplates(&buf, tmpl); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2])
	}
	f.Add([]byte(templatesMagic))
	f.Add([]byte("SCTM\x03\x00\x00\x00\x00\x10\x00\x00\x01\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tmpl, err := ReadTemplates(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteTemplates(&buf, tmpl); err != nil {
			t.Fatalf("accepted stream does not serialize: %v", err)
		}
		back, err := ReadTemplates(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		d := len(tmpl.POIs)
		s1, s2 := tmpl.NewScorer(), back.NewScorer()
		for _, fill := range []float64{0, 1, -3.5} {
			vec := make([]float64, d)
			for i := range vec {
				vec[i] = fill * float64(i+1)
			}
			ll1, err := s1.ScoreVector(vec)
			if err != nil {
				t.Fatal(err)
			}
			ll1 = append([]float64(nil), ll1...)
			ll2, err := s2.ScoreVector(vec)
			if err != nil {
				t.Fatal(err)
			}
			for ci := range ll1 {
				if !sameScore(ll1[ci], ll2[ci]) {
					t.Fatalf("class %d: round-tripped score %x, want %x", ci,
						math.Float64bits(ll2[ci]), math.Float64bits(ll1[ci]))
				}
			}
		}
	})
}
