package obs

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"reveal/internal/testkit"
)

func TestProfilerCollectOnce(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	p, err := NewProfiler(ProfilerOptions{
		Dir: dir, CPUDuration: 20 * time.Millisecond, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	cpuPath, heapPath, err := p.CollectOnce()
	if err != nil {
		t.Fatal(err)
	}
	if heapPath == "" {
		t.Fatal("no heap profile written")
	}
	for _, path := range []string{cpuPath, heapPath} {
		if path == "" {
			continue // CPU profiler may be held by the test harness itself
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile missing: %v", err)
		}
		if fi.Size() == 0 {
			t.Fatalf("%s is empty", path)
		}
	}

	// The runtime gauges must be live after a capture cycle.
	if g := reg.Gauge(MetricRuntimeGoroutines).Value(); g < 1 {
		t.Fatalf("%s = %v, want >= 1", MetricRuntimeGoroutines, g)
	}
	if h := reg.Gauge(MetricRuntimeHeapBytes).Value(); h <= 0 {
		t.Fatalf("%s = %v, want > 0", MetricRuntimeHeapBytes, h)
	}
	if c := reg.Counter(MetricProfilesCaptured).Value(); c != 1 {
		t.Fatalf("%s = %d, want 1", MetricProfilesCaptured, c)
	}
	// GC at least once so the pause distribution is non-degenerate, then
	// re-sample: the gauges must not go negative or NaN.
	runtime.GC()
	p.SampleRuntimeMetrics()
	for _, name := range []string{
		MetricRuntimeGCPauseP50, MetricRuntimeGCPauseMax,
		MetricRuntimeSchedLatP50, MetricRuntimeSchedLatP99,
		MetricRuntimeGCCycles,
	} {
		if v := reg.Gauge(name).Value(); v < 0 || v != v {
			t.Fatalf("%s = %v, want finite >= 0", name, v)
		}
	}
	if v := reg.Gauge(MetricRuntimeGCCycles).Value(); v < 1 {
		t.Fatalf("%s = %v after an explicit GC, want >= 1", MetricRuntimeGCCycles, v)
	}
}

func TestProfilerRetentionAndResume(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	p, err := NewProfiler(ProfilerOptions{
		Dir: dir, CPUDuration: time.Millisecond, MaxProfiles: 3, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := p.CollectOnce(); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	heaps, err := filepath.Glob(filepath.Join(dir, "heap-*.pprof"))
	if err != nil {
		t.Fatal(err)
	}
	if len(heaps) != 3 {
		t.Fatalf("retention kept %d heap profiles, want 3: %v", len(heaps), heaps)
	}
	// The newest capture survives the prune.
	want := filepath.Join(dir, "heap-000005.pprof")
	if _, err := os.Stat(want); err != nil {
		t.Fatalf("newest profile pruned: %v", err)
	}

	// A restarted profiler resumes numbering after the retained files.
	p2, err := NewProfiler(ProfilerOptions{
		Dir: dir, CPUDuration: time.Millisecond, MaxProfiles: 3, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	_, heapPath, err := p2.CollectOnce()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(heapPath, "heap-000006.pprof") {
		t.Fatalf("restart reused a sequence number: %s", heapPath)
	}
}

func TestProfilerStartStop(t *testing.T) {
	dir := t.TempDir()
	p, err := NewProfiler(ProfilerOptions{
		Dir: dir, Interval: 20 * time.Millisecond,
		CPUDuration: time.Millisecond, Registry: NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if m, _ := filepath.Glob(filepath.Join(dir, "heap-*.pprof")); len(m) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("periodic loop produced no profile within 5s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	p.Close()
	p.Close() // idempotent
	if _, err := NewProfiler(ProfilerOptions{}); err == nil {
		t.Fatal("NewProfiler without Dir must fail")
	}
}

// TestRuntimeAndDriftFamiliesParse renders a registry carrying the new
// runtime-telemetry gauges and a labeled quality-drift counter through
// WritePrometheus and validates the exposition with ParsePrometheusText —
// the same check the scrape smoke test runs against a live daemon.
func TestRuntimeAndDriftFamiliesParse(t *testing.T) {
	reg := NewRegistry()
	p, err := NewProfiler(ProfilerOptions{Dir: t.TempDir(), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.SampleRuntimeMetrics()
	reg.Counter(LabelKeys("reveal_quality_drift_total",
		"kind", "attack", "metric", "value_accuracy")).Inc()

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	pm, err := testkit.ParsePrometheusText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
	}
	for _, name := range []string{
		MetricRuntimeGoroutines, MetricRuntimeHeapBytes,
		MetricRuntimeGCPauseP50, MetricRuntimeGCPauseMax,
		MetricRuntimeSchedLatP50, MetricRuntimeSchedLatP99,
		MetricRuntimeGCCycles,
	} {
		if !pm.HasMetric(name) {
			t.Fatalf("family %s missing from exposition:\n%s", name, buf.String())
		}
	}
	key := `reveal_quality_drift_total{kind="attack",metric="value_accuracy"}`
	v, ok := pm.Value(key)
	if !ok || v != 1 {
		t.Fatalf("%s = %v (ok=%v) in exposition:\n%s", key, v, ok, buf.String())
	}
}

func TestLabelKeys(t *testing.T) {
	got := LabelKeys("m", "kind", "attack", "metric", "value_accuracy")
	want := `m{kind="attack",metric="value_accuracy"}`
	if got != want {
		t.Fatalf("LabelKeys = %s, want %s", got, want)
	}
	if got := LabelKeys("m"); got != "m{}" {
		t.Fatalf("no-label LabelKeys = %s", got)
	}
	if got := LabelKeys("m", "a", `x"y`); got != `m{a="x\"y"}` {
		t.Fatalf("escaping broken: %s", got)
	}
	// Consistency with the single-pair renderer used everywhere else.
	if LabelKeys("m", "kind", "attack") != LabelKey("m", "kind", "attack") {
		t.Fatal("LabelKeys and LabelKey disagree on one pair")
	}
}

// TestSinkFlushDurability is the regression test for the SIGTERM-drain fix:
// after CloseSink the events.jsonl file must hold every appended event with
// no buffered tail lost, and the returned drop count must be zero on a
// healthy disk. It also checks the idle flush: events become visible on
// disk without closing the sink.
func TestSinkFlushDurability(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	l := NewEventLog(64, NewRegistry())
	l.AttachSink(f)
	const total = 40
	for i := 0; i < total; i++ {
		l.Append(ServiceEvent{Type: EventJobFinished, JobID: fmt.Sprintf("j%02d", i)})
	}
	// Idle flush: the writer trails only while a burst is in flight.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if fi, err := os.Stat(path); err == nil && fi.Size() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sink never flushed while idle")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if dropped := l.CloseSink(); dropped != 0 {
		t.Fatalf("CloseSink dropped %d on a healthy file", dropped)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(data), "\n")
	if lines != total {
		t.Fatalf("events.jsonl holds %d lines after CloseSink, want %d", lines, total)
	}
	if !strings.HasSuffix(string(data), "\n") {
		t.Fatal("journal must end on a complete line")
	}
	// CloseSink is idempotent and keeps returning the final count.
	if l.CloseSink() != 0 {
		t.Fatal("second CloseSink changed the drop count")
	}
}
