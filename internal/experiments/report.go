// Machine-readable views of the experiment results: the -json output of
// revealctl and the results section of run manifests are built from these
// structures instead of the human-oriented Format* tables.
package experiments

import (
	"encoding/json"
	"io"

	"reveal/internal/sca"
)

// Table1Report is the machine-readable form of Table I.
type Table1Report struct {
	Coefficients int                  `json:"coefficients"`
	SignAccuracy float64              `json:"sign_accuracy"`
	ZeroAccuracy float64              `json:"zero_accuracy"`
	Confusion    sca.ConfusionSummary `json:"confusion"`
	// Matrix is the raw (true → predicted → count) confusion matrix.
	Matrix map[int]map[int]int `json:"matrix"`
}

// Report builds the machine-readable view of a Table I result.
func (r *Table1Result) Report() Table1Report {
	return Table1Report{
		Coefficients: r.Coefficients,
		SignAccuracy: r.SignAccuracy,
		ZeroAccuracy: r.ZeroAccuracy,
		Confusion:    r.Confusion.Summary(),
		Matrix:       r.Confusion.Counts(),
	}
}

// WriteJSON writes v as indented JSON followed by a newline — the -json
// output convention of the cmd/ tools.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
