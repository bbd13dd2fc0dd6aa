package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"reveal/internal/core"
	"reveal/internal/obs"
	"reveal/internal/service"
)

// writeManifest writes a minimal manifest.json fixture with the given
// results block and returns its path.
func writeManifest(t *testing.T, dir, name string, results map[string]any) string {
	t.Helper()
	doc := map[string]any{
		"command":          "table1",
		"duration_seconds": 1.5,
		"results":          results,
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseCompareArgs(t *testing.T) {
	var stderr bytes.Buffer
	cfg, err := parseCompareArgs([]string{
		"-tol", "0.1", "-gate-perf", "-json", "-perf-tol", "0.35",
		"-metric-tol", "results.mean_value_accuracy=0.25",
		"-metric-tol", "results.messages_recovered=0",
		"old.json", "new.json",
	}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Tol != 0.1 || !cfg.GatePerf || !cfg.JSONOut || cfg.PerfTol != 0.35 {
		t.Fatalf("flags not plumbed: %+v", cfg)
	}
	if cfg.OldPath != "old.json" || cfg.NewPath != "new.json" {
		t.Fatalf("positional args not plumbed: %+v", cfg)
	}
	if cfg.MetricTol["results.mean_value_accuracy"] != 0.25 ||
		cfg.MetricTol["results.messages_recovered"] != 0 {
		t.Fatalf("metric-tol overrides not collected: %v", cfg.MetricTol)
	}
}

func TestParseCompareArgsErrors(t *testing.T) {
	cases := [][]string{
		{"only-one.json"},                                // wrong arity
		{"a.json", "b.json", "c.json"},                   // wrong arity
		{"-metric-tol", "noequals", "a.json", "b.json"},  // malformed override
		{"-metric-tol", "name=-0.5", "a.json", "b.json"}, // negative tolerance
		{"-metric-tol", "name=junk", "a.json", "b.json"}, // non-numeric
		{"-tol", "abc", "a.json", "b.json"},              // bad float
	}
	for _, args := range cases {
		var stderr bytes.Buffer
		if _, err := parseCompareArgs(args, &stderr); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}

func TestExecuteCompareNoRegression(t *testing.T) {
	dir := t.TempDir()
	old := writeManifest(t, dir, "old.json", map[string]any{"mean_value_accuracy": 0.90})
	new_ := writeManifest(t, dir, "new.json", map[string]any{"mean_value_accuracy": 0.92})
	var stdout, stderr bytes.Buffer
	cfg := &compareConfig{Tol: 0.05, MetricTol: metricTolFlag{}, OldPath: old, NewPath: new_}
	if err := executeCompare(cfg, &stdout, &stderr); err != nil {
		t.Fatalf("improvement flagged as regression: %v\n%s", err, stdout.String())
	}
	if !strings.Contains(stdout.String(), "no regressions") {
		t.Fatalf("missing pass banner:\n%s", stdout.String())
	}
}

func TestExecuteCompareRegressionFails(t *testing.T) {
	dir := t.TempDir()
	old := writeManifest(t, dir, "old.json", map[string]any{"mean_value_accuracy": 0.90})
	new_ := writeManifest(t, dir, "new.json", map[string]any{"mean_value_accuracy": 0.50})
	var stdout, stderr bytes.Buffer
	cfg := &compareConfig{Tol: 0.05, MetricTol: metricTolFlag{}, OldPath: old, NewPath: new_}
	err := executeCompare(cfg, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "regression detected") {
		t.Fatalf("44%% accuracy drop not gated: err=%v", err)
	}
	if !strings.Contains(stdout.String(), "REGRESSED") {
		t.Fatalf("report does not flag the regressed metric:\n%s", stdout.String())
	}
}

// TestExecuteCompareMetricTolOverride: a -metric-tol wide enough to absorb
// the drop must turn the same comparison into a pass — the end-to-end check
// that the repeatable flag actually reaches the gate.
func TestExecuteCompareMetricTolOverride(t *testing.T) {
	dir := t.TempDir()
	old := writeManifest(t, dir, "old.json", map[string]any{"mean_value_accuracy": 0.90})
	new_ := writeManifest(t, dir, "new.json", map[string]any{"mean_value_accuracy": 0.50})
	var stdout, stderr bytes.Buffer
	cfg := &compareConfig{
		Tol:       0.05,
		MetricTol: metricTolFlag{"results.mean_value_accuracy": 0.5},
		OldPath:   old, NewPath: new_,
	}
	if err := executeCompare(cfg, &stdout, &stderr); err != nil {
		t.Fatalf("override did not loosen the gate: %v", err)
	}
}

// TestExecuteCompareMissingMetricFails: a gated metric that vanished from
// the new run must fail the gate — results silently disappearing is a
// regression, not a pass.
func TestExecuteCompareMissingMetricFails(t *testing.T) {
	dir := t.TempDir()
	old := writeManifest(t, dir, "old.json", map[string]any{
		"mean_value_accuracy": 0.90, "messages_recovered": 2.0,
	})
	new_ := writeManifest(t, dir, "new.json", map[string]any{
		"mean_value_accuracy": 0.90,
	})
	var stdout, stderr bytes.Buffer
	cfg := &compareConfig{Tol: 0.05, MetricTol: metricTolFlag{}, OldPath: old, NewPath: new_}
	if err := executeCompare(cfg, &stdout, &stderr); err == nil {
		t.Fatalf("vanished gated metric passed the gate:\n%s", stdout.String())
	}
	// Regression outranks the missing-in label in the rendered status, so
	// the vanished metric shows up as REGRESSED on its own row.
	if !strings.Contains(stdout.String(), "messages_recovered") ||
		!strings.Contains(stdout.String(), "REGRESSED") {
		t.Fatalf("report does not flag the vanished metric:\n%s", stdout.String())
	}
}

func TestExecuteCompareJSONOutput(t *testing.T) {
	dir := t.TempDir()
	old := writeManifest(t, dir, "old.json", map[string]any{"mean_value_accuracy": 0.90})
	new_ := writeManifest(t, dir, "new.json", map[string]any{"mean_value_accuracy": 0.50})
	var stdout, stderr bytes.Buffer
	cfg := &compareConfig{Tol: 0.05, JSONOut: true, MetricTol: metricTolFlag{}, OldPath: old, NewPath: new_}
	if err := executeCompare(cfg, &stdout, &stderr); err == nil {
		t.Fatal("regression not reported in JSON mode")
	}
	var doc struct {
		Regressed bool              `json:"regressed"`
		Deltas    []obs.MetricDelta `json:"deltas"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatalf("JSON mode emitted invalid JSON: %v\n%s", err, stdout.String())
	}
	if !doc.Regressed || len(doc.Deltas) == 0 {
		t.Fatalf("JSON report incomplete: %+v", doc)
	}
}

// writeBenchSnapshotFixture writes a minimal BENCH_*.json fixture.
func writeBenchSnapshotFixture(t *testing.T, dir, name string, nsPerOp float64) string {
	t.Helper()
	doc := map[string]any{
		"benchmark": "BenchmarkTable1TemplateAttack",
		"ns_per_op": nsPerOp,
		"metrics":   map[string]any{"value-acc-%": 68.0},
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestExecuteComparePerfGate: the bench-gate configuration end to end — a
// 2× slowdown fails under -gate-perf, and -perf-tol loosens only the
// wall-clock bound.
func TestExecuteComparePerfGate(t *testing.T) {
	dir := t.TempDir()
	old := writeBenchSnapshotFixture(t, dir, "baseline.json", 1e8)
	slow := writeBenchSnapshotFixture(t, dir, "slow.json", 2e8)
	var stdout, stderr bytes.Buffer
	cfg := &compareConfig{Tol: 0.05, GatePerf: true, MetricTol: metricTolFlag{}, OldPath: old, NewPath: slow}
	if err := executeCompare(cfg, &stdout, &stderr); err == nil {
		t.Fatalf("2x slowdown passed the perf gate:\n%s", stdout.String())
	}
	// Without -gate-perf the same pair passes (perf is informational).
	stdout.Reset()
	cfg = &compareConfig{Tol: 0.05, MetricTol: metricTolFlag{}, OldPath: old, NewPath: slow}
	if err := executeCompare(cfg, &stdout, &stderr); err != nil {
		t.Fatalf("perf metrics gated without -gate-perf: %v", err)
	}
	// A wide -perf-tol absorbs the slowdown.
	stdout.Reset()
	cfg = &compareConfig{Tol: 0.05, GatePerf: true, PerfTol: 1.5, MetricTol: metricTolFlag{}, OldPath: old, NewPath: slow}
	if err := executeCompare(cfg, &stdout, &stderr); err != nil {
		t.Fatalf("perf-tol did not loosen the gate: %v", err)
	}
}

func TestExecuteCompareMissingFile(t *testing.T) {
	var stdout, stderr bytes.Buffer
	cfg := &compareConfig{Tol: 0.05, MetricTol: metricTolFlag{},
		OldPath: filepath.Join(t.TempDir(), "nope.json"), NewPath: "also-nope.json"}
	if err := executeCompare(cfg, &stdout, &stderr); err == nil {
		t.Fatal("nonexistent artifact did not error")
	}
}

func TestParseSubmitArgsInline(t *testing.T) {
	var stderr bytes.Buffer
	cfg, err := parseSubmitArgs([]string{
		"-addr", "http://example:1234", "-kind", "attack", "-seed", "9",
		"-lownoise", "-traces", "30", "-encryptions", "2",
		"-workers", "3", "-attempts", "5", "-timeout", "2s",
		"-wait", "-poll", "50ms",
	}, strings.NewReader(""), &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Addr != "http://example:1234" || !cfg.Wait || cfg.Poll.Milliseconds() != 50 {
		t.Fatalf("delivery flags not plumbed: %+v", cfg)
	}
	s := cfg.Spec
	if s.Kind != service.KindAttack || s.Seed != 9 || !s.LowNoise ||
		s.ProfileTracesPerValue != 30 || s.Encryptions != 2 ||
		s.Workers != 3 || s.MaxAttempts != 5 || s.TimeoutMS != 2000 {
		t.Fatalf("spec flags not plumbed: %+v", s)
	}
}

func TestParseSubmitArgsSpecFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(path, []byte(`{"kind":"diagnose","seed":42}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	// Inline flags must be ignored when -spec is set.
	cfg, err := parseSubmitArgs([]string{"-spec", path, "-kind", "attack", "-seed", "1"},
		strings.NewReader(""), &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Spec.Kind != service.KindDiagnose || cfg.Spec.Seed != 42 {
		t.Fatalf("spec file did not win over inline flags: %+v", cfg.Spec)
	}
}

func TestParseSubmitArgsSpecStdin(t *testing.T) {
	var stderr bytes.Buffer
	cfg, err := parseSubmitArgs([]string{"-spec", "-"},
		strings.NewReader(`{"kind":"stream","target_bikz":330}`), &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Spec.Kind != service.KindStream || cfg.Spec.TargetBikz != 330 {
		t.Fatalf("stdin spec not read: %+v", cfg.Spec)
	}
}

func TestParseSubmitArgsErrors(t *testing.T) {
	dir := t.TempDir()
	badJSON := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badJSON, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := [][]string{
		{"-kind", "warp-drive"},                      // Normalize rejects unknown kind
		{"-spec", filepath.Join(dir, "absent.json")}, // missing file
		{"-spec", badJSON},                           // malformed JSON
		{"-timeout", "soon"},                         // bad duration
	}
	for _, args := range cases {
		var stderr bytes.Buffer
		if _, err := parseSubmitArgs(args, strings.NewReader(""), &stderr); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}

func TestParseDiagnoseArgsDefaults(t *testing.T) {
	var stderr bytes.Buffer
	cfg, ofl, err := parseDiagnoseArgs(nil, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if ofl == nil {
		t.Fatal("obs flags not registered")
	}
	want := core.DefaultProfileOptions()
	if cfg.LowNoise || cfg.Seed != 1 ||
		cfg.Opts.Profile.TracesPerValue != want.TracesPerValue ||
		cfg.Opts.Profile.MaxAbsValue != want.MaxAbsValue {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
	if cfg.newDevice() == nil {
		t.Fatal("device construction failed")
	}
}

func TestParseDiagnoseArgsOverrides(t *testing.T) {
	var stderr bytes.Buffer
	cfg, _, err := parseDiagnoseArgs(
		[]string{"-lownoise", "-seed", "7", "-traces", "11", "-maxabs", "3", "-curves", "-json"},
		&stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.LowNoise || cfg.Seed != 7 || !cfg.Opts.KeepCurves || !cfg.JSONOut {
		t.Fatalf("flags not plumbed: %+v", cfg)
	}
	if cfg.Opts.Profile.TracesPerValue != 11 || cfg.Opts.Profile.MaxAbsValue != 3 {
		t.Fatalf("preset overrides not applied: %+v", cfg.Opts.Profile)
	}
	// -lownoise selects the high-accuracy preset as the base.
	base := core.HighAccuracyProfileOptions()
	if cfg.Opts.Profile.Templates.POICount != base.Templates.POICount {
		t.Fatalf("lownoise preset not selected: %+v", cfg.Opts.Profile.Templates)
	}
}
