package obs

import (
	"bytes"
	"strings"
	"testing"

	"reveal/internal/testkit"
)

// TestParsePrometheusTextRoundTrip feeds a real Registry.WritePrometheus
// exposition — counters, gauges, labeled vectors with escaping-hostile
// values, and histogram summaries — back through the parser and checks the
// samples survive intact. This is the same validation the service smoke
// test applies to a live /metrics scrape.
func TestParsePrometheusTextRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("reveal_rt_total").Add(3)
	reg.Gauge("reveal_rt_depth").Set(2.5)
	vec := reg.CounterVec("reveal_rt_jobs_total", "tenant", 8)
	vec.With("acme").Inc()
	vec.With("acme").Inc()
	vec.With(`we"ird\ten`).Inc() // exercises the label escaping path
	hist := reg.HistogramVec("reveal_rt_latency_seconds", "kind", 8).With("attack")
	hist.Observe(0.1)
	hist.Observe(0.3)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	pm, err := testkit.ParsePrometheusText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("real exposition rejected: %v\n%s", err, buf.String())
	}

	if v, ok := pm.Value("reveal_rt_total"); !ok || v != 3 {
		t.Errorf("reveal_rt_total = %v, %v; want 3", v, ok)
	}
	if v, ok := pm.Value("reveal_rt_depth"); !ok || v != 2.5 {
		t.Errorf("reveal_rt_depth = %v, %v; want 2.5", v, ok)
	}
	if v, ok := pm.Value(LabelKey("reveal_rt_jobs_total", "tenant", "acme")); !ok || v != 2 {
		t.Errorf("acme counter = %v, %v; want 2", v, ok)
	}
	if v, ok := pm.Value(LabelKey("reveal_rt_jobs_total", "tenant", `we"ird\ten`)); !ok || v != 1 {
		t.Errorf("escaped-label counter = %v, %v; want 1", v, ok)
	}
	if v, ok := pm.Value(`reveal_rt_latency_seconds_count{kind="attack"}`); !ok || v != 2 {
		t.Errorf("histogram count = %v, %v; want 2", v, ok)
	}
	if v, ok := pm.Value(`reveal_rt_latency_seconds_sum{kind="attack"}`); !ok || v < 0.39 || v > 0.41 {
		t.Errorf("histogram sum = %v, %v; want ~0.4", v, ok)
	}
	if !pm.HasMetric("reveal_rt_latency_seconds") {
		t.Error("histogram base name missing")
	}
	if pm.Types["reveal_rt_total"] != "counter" || pm.Types["reveal_rt_depth"] != "gauge" ||
		pm.Types["reveal_rt_latency_seconds"] != "summary" {
		t.Errorf("TYPE declarations = %v", pm.Types)
	}
}

// TestParsePrometheusTextMalformed pins the rejections a scraper depends
// on: the parser is the smoke test's oracle, so it must fail loudly on
// output a real Prometheus would refuse to ingest.
func TestParsePrometheusTextMalformed(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"empty", ""},
		{"comments only", "# HELP m something\n# TYPE m counter\n"},
		{"no value", "just_a_name\n"},
		{"bad value", "m nope\n"},
		{"duplicate series", "m 1\nm 2\n"},
		{"unterminated quote", `m{l="x} 1` + "\n"},
		{"unterminated braces", `m{a="b" 1` + "\n"},
		{"nested braces", `m{{a="b"}} 1` + "\n"},
		{"bad metric name", "9bad 1\n"},
		{"bad label name", `m{9bad="v"} 1` + "\n"},
		{"garbage after label value", `m{a="v"extra} 1` + "\n"},
		{"unknown type", "# TYPE m bogus\nm 1\n"},
		{"type redeclared", "# TYPE m counter\n# TYPE m gauge\nm 1\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := testkit.ParsePrometheusText(strings.NewReader(c.in)); err == nil {
				t.Fatalf("accepted malformed exposition %q", c.in)
			}
		})
	}
}

// TestParsePrometheusTextTimestamps accepts the optional trailing
// timestamp field the format permits.
func TestParsePrometheusTextTimestamps(t *testing.T) {
	pm, err := testkit.ParsePrometheusText(strings.NewReader("m 1.5 1690000000000\n"))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := pm.Value("m"); !ok || v != 1.5 {
		t.Fatalf("timestamped sample = %v, %v", v, ok)
	}
}
