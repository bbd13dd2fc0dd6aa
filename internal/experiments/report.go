// Machine-readable views of the experiment results: the -json output of
// revealctl and the results section of run manifests are built from these
// structures instead of the human-oriented Format* tables.
package experiments

import (
	"encoding/json"
	"io"

	"reveal/internal/core"
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

// Table2Report is the machine-readable form of Table II.
type Table2Report struct {
	Rows []Table2ReportRow `json:"rows"`
}

// Table2ReportRow is one measurement's probability table.
type Table2ReportRow struct {
	Secret   int            `json:"secret"`
	Probs    core.Posterior `json:"probs"`
	Centered float64        `json:"centered"`
	Variance float64        `json:"variance"`
}

// ReportTable2 converts Table II rows to the machine-readable form.
func ReportTable2(rows []Table2Row) Table2Report {
	out := Table2Report{Rows: make([]Table2ReportRow, len(rows))}
	for i, r := range rows {
		out.Rows[i] = Table2ReportRow{
			Secret: r.Secret, Probs: r.Probs,
			Centered: r.Centered, Variance: r.Variance,
		}
	}
	return out
}

// WriteJSON writes v as indented JSON followed by a newline — the -json
// output convention of the cmd/ tools.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
