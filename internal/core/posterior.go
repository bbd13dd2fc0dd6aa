package core

import (
	"encoding/json"
	"slices"
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
	m := make(map[int]float64, len(p.Labels))
	for k, v := range p.Labels {
		m[v] = p.P[k]
	}
	return json.Marshal(m)
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
