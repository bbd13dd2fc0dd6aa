package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"reveal/internal/sca"
)

// Classifier persistence: the profiling campaign is the expensive part of
// the attack (the paper ran 220,000 device executions), so revealctl can
// save a trained classifier and reuse it across sessions.

const (
	classifierMagic   = "RVCL"
	classifierVersion = 1
)

// WriteClassifier serializes a trained classifier.
func WriteClassifier(w io.Writer, c *CoefficientClassifier) error {
	if c == nil || c.Sign == nil || c.Pos == nil || c.Neg == nil {
		return fmt.Errorf("core: classifier incomplete, cannot serialize")
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(classifierMagic); err != nil {
		return err
	}
	for _, v := range []uint32{classifierVersion, uint32(c.Length), uint32(c.MaxAbsValue)} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, t := range []*sca.Templates{c.Sign, c.Pos, c.Neg} {
		if err := sca.WriteTemplates(bw, t); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadClassifier deserializes a classifier written by WriteClassifier.
func ReadClassifier(r io.Reader) (*CoefficientClassifier, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("core: reading magic: %w", err)
	}
	if string(magic) != classifierMagic {
		return nil, fmt.Errorf("core: bad magic %q", magic)
	}
	var version, length, maxAbs uint32
	for _, p := range []*uint32{&version, &length, &maxAbs} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, err
		}
	}
	if version != classifierVersion {
		return nil, fmt.Errorf("core: unsupported classifier version %d", version)
	}
	if length == 0 || length > 1<<20 || maxAbs == 0 || maxAbs > 64 {
		return nil, fmt.Errorf("core: implausible classifier header length=%d maxAbs=%d", length, maxAbs)
	}
	c := &CoefficientClassifier{Length: int(length), MaxAbsValue: int(maxAbs)}
	var err error
	if c.Sign, err = sca.ReadTemplates(br); err != nil {
		return nil, fmt.Errorf("core: sign templates: %w", err)
	}
	if c.Pos, err = sca.ReadTemplates(br); err != nil {
		return nil, fmt.Errorf("core: positive templates: %w", err)
	}
	if c.Neg, err = sca.ReadTemplates(br); err != nil {
		return nil, fmt.Errorf("core: negative templates: %w", err)
	}
	// Every segment is aligned to Length samples, so a template reaching
	// past them could score no coefficient.
	for _, t := range []struct {
		side string
		tpl  *sca.Templates
	}{{"sign", c.Sign}, {"positive", c.Pos}, {"negative", c.Neg}} {
		if p := slices.Max(t.tpl.POIs); p >= c.Length {
			return nil, fmt.Errorf("core: %s templates use sample %d of %d-sample segments", t.side, p, c.Length)
		}
	}
	// Posterior rows hold the negative labels, 0, then the positive ones,
	// ascending (see CoefficientClassifier.labels).
	if !ascendingWithin(c.Pos.Labels(), 1, math.MaxInt) {
		return nil, fmt.Errorf("core: positive templates carry labels %v", c.Pos.Labels())
	}
	if !ascendingWithin(c.Neg.Labels(), math.MinInt, -1) {
		return nil, fmt.Errorf("core: negative templates carry labels %v", c.Neg.Labels())
	}
	return c, nil
}

// ascendingWithin reports whether labels ascend strictly within [lo, hi].
func ascendingWithin(labels []int, lo, hi int) bool {
	for i, l := range labels {
		if l < lo || l > hi || i > 0 && l <= labels[i-1] {
			return false
		}
	}
	return true
}
