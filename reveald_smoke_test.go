// Service observability smoke test: boots the reveald stack in-process —
// recorder with journal and tracing, service, instrumented listener — and
// validates the operational surface end to end: a traced submission, a
// /metrics scrape that must parse as a real Prometheus exposition with the
// per-route and per-kind series, the /events journal, the events.jsonl
// sink, and the /readyz drain flip.
package reveal

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"reveal/internal/jobs"
	"reveal/internal/obs"
	"reveal/internal/service"
	"reveal/internal/testkit"
)

func TestRevealdServiceSmoke(t *testing.T) {
	// The root test binary shares its process with the bench and examples
	// smoke tests; the global recorder must be restored whatever happens.
	rec := obs.New(obs.Options{
		TraceCapacity: obs.DefaultTraceCapacity,
		TraceRing:     true,
		EventCapacity: 1024,
	})
	prev := obs.Global()
	obs.SetGlobal(rec)
	defer obs.SetGlobal(prev)

	dataDir := t.TempDir()
	eventsFile, err := os.OpenFile(filepath.Join(dataDir, "events.jsonl"),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	rec.Events().AttachSink(eventsFile)
	defer eventsFile.Close()

	svc := service.New(service.Config{
		QueueOptions: jobs.Options{MaxAttempts: 2, BackoffBase: 5 * time.Millisecond, BackoffMax: 40 * time.Millisecond},
		PoolWorkers:  1,
		DataDir:      dataDir,
	})
	var draining atomic.Bool
	srv, err := obs.ServeMetricsCfg(rec, "127.0.0.1:0", obs.ServeConfig{
		API:        svc.Handler(),
		APIRoute:   service.RouteLabel,
		Instrument: true,
		Ready: func(context.Context) error {
			if draining.Load() {
				return errors.New("draining")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	svc.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	}()
	base := "http://" + srv.Addr()

	// Ready before drain.
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz = %d before drain", resp.StatusCode)
	}

	// Submit a traced small attack campaign exactly as revealctl would.
	const traceID = "smoke-trace-0001"
	spec, err := json.Marshal(map[string]any{
		"kind": "attack", "seed": 3, "profile_traces_per_value": 4, "workers": 1, "tenant": "smoke",
	})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, base+"/api/v1/campaigns", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, traceID)
	sresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var submitted struct {
		Job jobs.Status `json:"job"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&submitted); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if sresp.Header.Get(obs.TraceHeader) != traceID {
		t.Fatalf("trace header not echoed: %q", sresp.Header.Get(obs.TraceHeader))
	}
	if submitted.Job.TraceID != traceID {
		t.Fatalf("job trace = %q, want %q", submitted.Job.TraceID, traceID)
	}

	client := service.NewClient(base)
	waitCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done, err := client.WaitDone(waitCtx, submitted.Job.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != jobs.StateDone || done.TraceID != traceID {
		t.Fatalf("campaign ended %+v", done)
	}

	// The /metrics scrape must be a valid exposition carrying the per-route
	// HTTP series and the per-kind queue histograms.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	pm, err := testkit.ParsePrometheusText(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("/metrics is not a valid Prometheus exposition: %v\n%s", err, raw)
	}
	if v, ok := pm.Value(obs.LabelKey(obs.MetricHTTPRequests, "route", "/api/v1/campaigns")); !ok || v < 1 {
		t.Errorf("per-route request counter missing or zero: %v, %v", v, ok)
	}
	if v, ok := pm.Value(`reveal_jobs_queue_wait_seconds_count{kind="attack"}`); !ok || v != 1 {
		t.Errorf("per-kind queue-wait histogram = %v, %v; want 1 observation", v, ok)
	}
	if v, ok := pm.Value(obs.LabelKey(jobs.MetricJobsTotal, "state", "done")); !ok || v != 1 {
		t.Errorf("jobs done counter = %v, %v; want 1", v, ok)
	}
	if v, ok := pm.Value(obs.LabelKey(jobs.MetricTenantJobs, "tenant", "smoke")); !ok || v != 1 {
		t.Errorf("tenant counter = %v, %v; want 1", v, ok)
	}
	if !pm.HasMetric(obs.MetricServiceEvents) {
		t.Error("journal counter missing from /metrics")
	}

	// The /events journal serves the traced lifecycle.
	eresp, err := http.Get(base + "/events?max=256")
	if err != nil {
		t.Fatal(err)
	}
	var events obs.EventsResponse
	if err := json.NewDecoder(eresp.Body).Decode(&events); err != nil {
		t.Fatal(err)
	}
	eresp.Body.Close()
	sawFinished := false
	for _, ev := range events.Events {
		if ev.Type == obs.EventJobFinished && ev.TraceID == traceID {
			sawFinished = true
		}
	}
	if !sawFinished {
		t.Fatalf("/events missing the traced job_finished event: %+v", events.Events)
	}

	// Drain: /readyz flips to 503 while /healthz stays alive, mirroring the
	// daemon's SIGTERM sequence.
	draining.Store(true)
	rresp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining = %d, want 503", rresp.StatusCode)
	}
	hresp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz while draining = %d, want 200", hresp.StatusCode)
	}

	// events.jsonl received the same journal through the async sink.
	rec.Events().CloseSink()
	sinkData, err := os.ReadFile(filepath.Join(dataDir, "events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines, traced := 0, false
	sc := bufio.NewScanner(bytes.NewReader(sinkData))
	for sc.Scan() {
		var ev obs.ServiceEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("events.jsonl line %d invalid: %v", lines+1, err)
		}
		lines++
		if ev.TraceID == traceID {
			traced = true
		}
	}
	if lines == 0 || !traced {
		t.Fatalf("events.jsonl lines=%d traced=%v:\n%s", lines, traced, sinkData)
	}
	if !strings.Contains(string(sinkData), `"type":"job_submitted"`) {
		t.Error("events.jsonl missing the submission record")
	}
}
