package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
)

// Posterior is one coefficient's posterior probability table — a row of
// Table II — in dense form: P[k] is the probability of Labels[k]. Labels
// is the classifier's ascending label set, shared by every table it
// produces and never modified; P is one row of the attack's arena. Every
// sum over a table runs in ascending label order.
type Posterior struct {
	Labels []int
	P      []float64
}

// At returns the probability of label v (0 when v is not a label).
func (p Posterior) At(v int) float64 {
	if k, ok := slices.BinarySearch(p.Labels, v); ok {
		return p.P[k]
	}
	return 0
}

// MarshalJSON encodes the table exactly as encoding/json encodes the
// equivalent map[int]float64, keys sorted as strings, so digests and
// reports keep the bytes of the map form.
func (p Posterior) MarshalJSON() ([]byte, error) {
	var w posteriorWriter
	return w.append(nil, p)
}

// posteriorWriter writes posterior tables in the bytes encoding/json
// writes for the equivalent map[int]float64, without building the map.
// The key order of a label set is computed once and reused while the
// tables share it, as all tables of one classifier do.
type posteriorWriter struct {
	labels []int    // the label set keys and order were computed for
	keys   [][]byte // keys[k] is `"label":` of labels[k]
	// order lists the label indices in encoding/json's key order: the
	// decimal strings, compared bytewise.
	order []int
}

// append appends the JSON object of p to b. A table without labels is
// written as {}; a NaN or infinite probability, which JSON cannot hold,
// is an error.
func (w *posteriorWriter) append(b []byte, p Posterior) ([]byte, error) {
	if !slices.Equal(w.labels, p.Labels) {
		w.layout(p.Labels)
	}
	b = append(b, '{')
	for n, k := range w.order {
		if n > 0 {
			b = append(b, ',')
		}
		b = append(b, w.keys[k]...)
		f := p.P[k]
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return b, fmt.Errorf("core: probability %v of label %d has no JSON form", f, p.Labels[k])
		}
		b = appendJSONFloat(b, f)
	}
	return append(b, '}'), nil
}

func (w *posteriorWriter) layout(labels []int) {
	w.labels = slices.Clone(labels)
	w.keys, w.order = w.keys[:0], w.order[:0]
	for k, v := range labels {
		key := strconv.AppendInt([]byte{'"'}, int64(v), 10)
		w.keys = append(w.keys, append(key, '"', ':'))
		w.order = append(w.order, k)
	}
	// The closing quote sorts below '-' and every digit, so the quoted
	// keys sort as their decimal strings do.
	slices.SortFunc(w.order, func(a, b int) int { return bytes.Compare(w.keys[a], w.keys[b]) })
}

// appendJSONFloat appends a finite f as encoding/json writes a float64:
// the shortest decimal that round-trips, in exponent form below 1e-6 and
// from 1e21 on with a one-digit negative exponent written without its
// leading zero, and -0 kept as -0.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// UnmarshalJSON decodes the map form MarshalJSON writes.
func (p *Posterior) UnmarshalJSON(data []byte) error {
	var m map[int]float64
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	labels := make([]int, 0, len(m))
	for v := range m {
		labels = append(labels, v)
	}
	slices.Sort(labels)
	probs := make([]float64, len(labels))
	for k, v := range labels {
		probs[k] = m[v]
	}
	*p = Posterior{Labels: labels, P: probs}
	return nil
}
