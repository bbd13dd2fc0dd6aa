package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSpanIsNoOp(t *testing.T) {
	SetGlobal(nil)
	s := StartSpan("segment")
	if s != nil {
		t.Fatal("disabled observability must hand out nil spans")
	}
	s.AddItems(10)
	if d := s.End(); d != 0 {
		t.Fatalf("nil span End = %v, want 0", d)
	}
	if Enabled() {
		t.Fatal("Enabled() must be false with a nil global recorder")
	}
	Log().Info("goes nowhere")
}

func TestSpanRecordsStageMetrics(t *testing.T) {
	rec := New(Options{})
	sp := rec.StartSpan("segment")
	sp.AddItems(1024)
	time.Sleep(time.Millisecond)
	if d := sp.End(); d <= 0 {
		t.Fatalf("span duration = %v, want > 0", d)
	}
	stats := rec.StageStats()
	if len(stats) != 1 {
		t.Fatalf("got %d stages, want 1", len(stats))
	}
	st := stats[0]
	if st.Name != "segment" || st.Runs != 1 || st.Items != 1024 {
		t.Fatalf("stage stats = %+v", st)
	}
	if st.TotalSeconds <= 0 || st.P50Seconds <= 0 || st.ItemsPerSecond <= 0 {
		t.Fatalf("stage timings not recorded: %+v", st)
	}
	if st.Active != 0 {
		t.Fatalf("active = %d after End, want 0", st.Active)
	}
}

func TestSpanConcurrent(t *testing.T) {
	rec := New(Options{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := rec.StartSpan("classify")
				sp.AddItems(2)
				sp.End()
			}
		}()
	}
	wg.Wait()
	stats := rec.StageStats()
	if len(stats) != 1 || stats[0].Runs != 1600 || stats[0].Items != 3200 {
		t.Fatalf("stage stats = %+v", stats)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")
	cfg, _ := json.Marshal(map[string]int{"profile_traces": 40})
	m := &Manifest{
		Tool:            "revealctl",
		Command:         "attack",
		Args:            []string{"-seed", "1"},
		Seed:            1,
		GitDescribe:     "abc123-dirty",
		GoVersion:       "go1.22",
		StartTime:       time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC),
		EndTime:         time.Date(2026, 8, 5, 12, 3, 0, 0, time.UTC),
		DurationSeconds: 180,
		Config:          cfg,
		Stages: []StageStats{{
			Name: "segment", Runs: 2, Items: 2050,
			TotalSeconds: 0.4, MinSeconds: 0.1, MaxSeconds: 0.3,
			P50Seconds: 0.2, P95Seconds: 0.3, P99Seconds: 0.3,
			ItemsPerSecond: 5125,
		}},
		Results: map[string]any{"value_accuracy": 0.97},
		Metrics: RegistrySnapshot{Counters: map[string]int64{"c": 1}},
	}
	if err := WriteManifest(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	// The embedded raw config is re-indented on write; compare it
	// semantically, everything else byte-for-byte.
	var gotCfg, wantCfg map[string]int
	if err := json.Unmarshal(got.Config, &gotCfg); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(m.Config, &wantCfg); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotCfg, wantCfg) {
		t.Fatalf("config round trip mismatch: %v vs %v", gotCfg, wantCfg)
	}
	got.Config, m.Config = nil, nil
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
}

func TestStartRunFinishWritesArtifacts(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	prev := Global()
	run, err := StartRun(dir, RunOptions{
		Tool: "obs_test", Command: "selftest", Seed: 42,
		Config: map[string]string{"mode": "test"}, Quiet: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if Global() != run.Recorder {
		t.Fatal("StartRun must install the run recorder globally")
	}
	sp := StartSpan("segment")
	sp.AddItems(5)
	sp.End()
	run.SetResult("value_accuracy", 0.5)
	if err := run.Finish(); err != nil {
		t.Fatal(err)
	}
	if Global() != prev {
		t.Fatal("Finish must restore the previous global recorder")
	}

	m, err := ReadManifest(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Tool != "obs_test" || m.Seed != 42 || m.DurationSeconds < 0 {
		t.Fatalf("manifest = %+v", m)
	}
	if len(m.Stages) != 1 || m.Stages[0].Name != "segment" || m.Stages[0].Items != 5 {
		t.Fatalf("manifest stages = %+v", m.Stages)
	}
	if m.Results["value_accuracy"] != 0.5 {
		t.Fatalf("manifest results = %+v", m.Results)
	}
	var cfg map[string]string
	if err := json.Unmarshal(m.Config, &cfg); err != nil || cfg["mode"] != "test" {
		t.Fatalf("manifest config = %s (%v)", m.Config, err)
	}

	metrics, err := os.ReadFile(filepath.Join(dir, "metrics.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(metrics), `reveal_stage_runs_total{stage="segment"} 1`) {
		t.Fatalf("metrics.txt missing stage counter:\n%s", metrics)
	}
	if _, err := os.Stat(filepath.Join(dir, "run.log")); err != nil {
		t.Fatalf("run.log missing: %v", err)
	}
}

func TestMetricsServerEndpoints(t *testing.T) {
	rec := New(Options{})
	sp := rec.StartSpan("template")
	sp.AddItems(3)
	sp.End()
	srv, err := ServeMetricsCfg(rec, "127.0.0.1:0", ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if out := get("/metrics"); !strings.Contains(out, `reveal_stage_runs_total{stage="template"} 1`) {
		t.Errorf("/metrics missing stage counter:\n%s", out)
	}
	var prog progressReport
	if err := json.Unmarshal([]byte(get("/progress")), &prog); err != nil {
		t.Fatalf("/progress not JSON: %v", err)
	}
	if len(prog.Stages) != 1 || prog.Stages[0].Name != "template" {
		t.Errorf("/progress stages = %+v", prog.Stages)
	}
	if out := get("/debug/pprof/cmdline"); out == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
	var health struct {
		Status        string  `json:"status"`
		UptimeSeconds float64 `json:"uptime_seconds"`
	}
	if err := json.Unmarshal([]byte(get("/healthz")), &health); err != nil {
		t.Fatalf("/healthz not JSON: %v", err)
	}
	if health.Status != "ok" || health.UptimeSeconds < 0 {
		t.Errorf("/healthz = %+v", health)
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]string{
		"debug": "DEBUG", "info": "INFO", "WARN": "WARN",
		"error": "ERROR", "bogus": "INFO", "": "INFO",
	} {
		if got := ParseLevel(in).String(); got != want {
			t.Errorf("ParseLevel(%q) = %s, want %s", in, got, want)
		}
	}
}
