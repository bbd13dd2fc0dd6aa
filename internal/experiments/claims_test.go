package experiments

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"reveal/internal/sca"
	"reveal/internal/testkit"
)

// goldenValue pins one measured value: bits is authoritative, value is
// there for the reader.
type goldenValue struct {
	Value float64 `json:"value"`
	Bits  string  `json:"bits"`
}

// TestClaims runs the registry forward and then reversed. In both orders
// every shape predicate must hold and, on amd64 (where the committed values
// were recorded), every measured value must equal its golden bit for bit,
// so no claim's value depends on which claims ran before it.
// `go test ./internal/experiments -run TestClaims -update` rewrites
// testdata/claims/.
func TestClaims(t *testing.T) {
	reversed := Claims()
	slices.Reverse(reversed)
	for _, order := range []struct {
		name   string
		claims []Claim
	}{{"forward", Claims()}, {"reversed", reversed}} {
		t.Run(order.name, func(t *testing.T) {
			results, err := RunClaims(order.claims)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range results {
				t.Run(r.Claim.ID, func(t *testing.T) {
					for _, f := range r.Failed {
						t.Errorf("shape does not hold: %s (measured %v)", f, r.Values)
					}
					if runtime.GOARCH != "amd64" {
						return
					}
					golden := map[string]goldenValue{}
					for name, v := range r.Values {
						golden[name] = goldenValue{v, fmt.Sprintf("%#016x", math.Float64bits(v))}
					}
					testkit.Golden(t, "testdata/claims/"+r.Claim.ID+".json", golden)
				})
			}
		})
	}
}

func TestRunClaimsReportsFailedShapes(t *testing.T) {
	claims := []Claim{{
		ID:  "stub",
		Run: func() (Values, error) { return Values{"x": 1}, nil },
		Shapes: []Shape{
			{"x is 1", func(v Values) bool { return v["x"] == 1 }},
			{"x is 2", func(v Values) bool { return v["x"] == 2 }},
		},
	}}
	results, err := RunClaims(claims)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(results[0].Failed, []string{"x is 2"}) {
		t.Fatalf("failed shapes %q, want [x is 2]", results[0].Failed)
	}
	if got := Render(results); !strings.Contains(got, "| `stub` |  | x is 1; x is 2 | **no**: x is 2 |") {
		t.Errorf("the claims table does not show the failed shape:\n%s", got)
	}

	claims[0].Run = func() (Values, error) { return nil, os.ErrNotExist }
	if _, err := RunClaims(claims); err == nil || !strings.Contains(err.Error(), "claim stub") {
		t.Fatalf("a failed run returned %v, want an error naming the claim", err)
	}
}

func TestIdealHintsRejectsUnknownModel(t *testing.T) {
	if _, err := IdealHints(16, 12289, 3.2, "exact", 1); err == nil || err.Error() != `unknown hint model "exact"` {
		t.Fatalf("got %v", err)
	}
}

// TestExperimentsDoc holds EXPERIMENTS.md's measured tables byte-equal to
// the rendering of the claims, and names every stale row. With -update it
// rewrites them instead.
func TestExperimentsDoc(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("EXPERIMENTS.md is rendered from amd64 measurements")
	}
	results, err := RunClaims(Claims())
	if err != nil {
		t.Fatal(err)
	}
	const path = "../../EXPERIMENTS.md"
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	for _, tb := range tables(results) {
		start, end := docTable(lines, tb.heading)
		if start < 0 {
			t.Errorf("EXPERIMENTS.md has no table under %q", tb.heading)
			continue
		}
		if testkit.Updating() {
			lines = slices.Replace(lines, start, end, tb.lines()...)
			continue
		}
		for _, s := range staleRows(lines[start:end], tb.lines()) {
			t.Errorf("%s: %s", tb.heading, s)
		}
	}
	if testkit.Updating() {
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if t.Failed() {
		t.Log("regenerate with `go test ./internal/experiments -run TestExperimentsDoc -update`")
	}
}

// docTable returns the line bounds of the first table under heading,
// before the next "## " heading, or -1, -1 when there is none.
func docTable(lines []string, heading string) (start, end int) {
	i := slices.Index(lines, heading)
	if i < 0 {
		return -1, -1
	}
	for i++; i < len(lines) && !strings.HasPrefix(lines[i], "## "); i++ {
		if strings.HasPrefix(lines[i], "|") {
			end := i
			for end < len(lines) && strings.HasPrefix(lines[end], "|") {
				end++
			}
			return i, end
		}
	}
	return -1, -1
}

// staleRows compares a doc table with its rendering row by row, matching
// rows by their first cell.
func staleRows(doc, want []string) []string {
	label := func(line string) string {
		return strings.TrimSpace(strings.SplitN(strings.TrimPrefix(line, "|"), "|", 2)[0])
	}
	have := map[string]string{}
	for _, l := range doc {
		have[label(l)] = l
	}
	var out []string
	rendered := map[string]bool{}
	for _, w := range want {
		k := label(w)
		rendered[k] = true
		if d, ok := have[k]; !ok {
			out = append(out, fmt.Sprintf("row %q is missing; the rendering has\n\t%s", k, w))
		} else if d != w {
			out = append(out, fmt.Sprintf("stale row %q:\n\tdoc:       %s\n\trendering: %s", k, d, w))
		}
	}
	for _, l := range doc {
		if !rendered[label(l)] {
			out = append(out, fmt.Sprintf("row %q is not in the rendering", label(l)))
		}
	}
	if len(out) == 0 && !slices.Equal(doc, want) {
		out = append(out, "rows are out of order")
	}
	return out
}

func TestTable1Views(t *testing.T) {
	conf := sca.NewConfusion()
	conf.Add(-1, -1)
	conf.Add(2, 1)
	r := &Table1Result{Confusion: conf, SignAccuracy: 1, ZeroAccuracy: 1, Coefficients: 2}
	if text := FormatTable1(r, -2, 2); !strings.HasPrefix(text,
		"Table I — attack success percentages (2 coefficients)\nsign accuracy: 100.0%   zero accuracy: 100.0%\n") {
		t.Errorf("Table I text:\n%s", text)
	}
	var b bytes.Buffer
	if err := WriteJSON(&b, r.Report()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"coefficients": 2,`) || !strings.HasSuffix(b.String(), "}\n") {
		t.Errorf("Table I JSON:\n%s", b.String())
	}
}
