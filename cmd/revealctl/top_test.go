package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"reveal/internal/jobs"
	"reveal/internal/obs"
	"reveal/internal/obs/history"
	"reveal/internal/service"
)

// TestRenderTop renders one dashboard frame from a fabricated stats
// payload and checks the load-bearing content: the summary line, the
// per-kind table with latency quantiles, the queue-wait sub-row, and the
// event tail with its trace annotation.
func TestRenderTop(t *testing.T) {
	stats := service.StatsResponse{
		Queued: 3, Running: 1, CachedTemplates: 2,
		Workers: 4, WorkersBusy: 1, UptimeSeconds: 125,
		Kinds: []jobs.KindStats{
			{Kind: "attack", Submitted: 7, Done: 5, Failed: 1, Retried: 2, Queued: 1, Running: 1},
			{Kind: "diagnose", Submitted: 2, Done: 2},
		},
		AttemptLatency: map[string]obs.HistogramSnapshot{
			"attack": {Count: 6, P50: 0.25, P95: 1.2, P99: 75},
		},
		QueueWait: map[string]obs.HistogramSnapshot{
			"attack": {Count: 6, P50: 0.002, P95: 0.01, P99: 0.05},
		},
	}
	events := []obs.ServiceEvent{
		{Seq: 9, Time: time.Date(2026, 8, 7, 12, 0, 1, 0, time.UTC), Type: obs.EventJobFinished,
			JobID: "job-000007", Kind: "attack", Tenant: "acme", TraceID: "trace-abc", State: "done"},
		{Seq: 10, Time: time.Date(2026, 8, 7, 12, 0, 2, 0, time.UTC), Type: obs.EventCacheFill,
			Detail: "trained lownoise in 1.20s"},
	}

	quality := &service.HistoryAggregateResponse{
		Aggregates: []history.KindAggregate{{
			Kind: "attack", Runs: 6,
			Metrics: []history.MetricAggregate{
				{Metric: "value_accuracy", Count: 6, Mean: 0.90, Last: 0.85, EWMA: 0.88},
				{Metric: "stage.attack_seconds", Count: 6, Mean: 0.4, Last: 0.4, EWMA: 0.4},
			},
		}},
		Baselines: map[string]map[string]float64{
			"attack": {"value_accuracy": 0.95},
		},
	}

	var buf bytes.Buffer
	renderTop(&buf, "http://127.0.0.1:9090", stats, quality, events)
	out := buf.String()
	for _, want := range []string{
		"workers 1/4 busy",
		"queue 3 queued / 1 running",
		"templates cached 2",
		"attack",
		"diagnose",
		"250.0ms", // attack p50
		"1.20s",   // attack p95
		"1m15s",   // attack p99 crosses into duration formatting
		"queue wait:",
		"2.0ms", // queue-wait p50
		"job_finished",
		"job-000007",
		"tenant=acme",
		"trace=trace-abc",
		"cache_fill",
		"trained lownoise",
		"quality (history):",
		"value_accuracy",
		"-5.3%", // mean 0.90 vs pinned baseline 0.95
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
	// Stage timings stay out of the quality pane.
	if strings.Contains(out, "stage.attack_seconds") {
		t.Errorf("quality pane must omit stage timings:\n%s", out)
	}
	// A daemon without a history store renders no quality pane.
	buf.Reset()
	renderTop(&buf, "http://127.0.0.1:9090", stats, nil, events)
	if strings.Contains(buf.String(), "quality (history):") {
		t.Error("nil quality must omit the pane")
	}
	// A kind with no latency observations renders "-" placeholders.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "diagnose") && !strings.Contains(line, "-") {
			t.Errorf("diagnose row should show '-' for unobserved quantiles: %q", line)
		}
	}
}

// TestFmtSeconds pins the latency rendering thresholds.
func TestFmtSeconds(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "-"},
		{-1, "-"},
		{0.000001, "1µs"},
		{0.00042, "420µs"},
		{0.0021, "2.1ms"},
		{0.25, "250.0ms"},
		{1.5, "1.50s"},
		{59.9, "59.90s"},
		{75, "1m15s"},
		{3700, "1h1m40s"},
	}
	for _, c := range cases {
		if got := fmtSeconds(c.in); got != c.want {
			t.Errorf("fmtSeconds(%g) = %q, want %q", c.in, got, c.want)
		}
	}
}
