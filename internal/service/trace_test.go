package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"reveal/internal/core"
	"reveal/internal/jobs"
	"reveal/internal/obs"
)

// newTracedService assembles the full daemon shape in-process: a recorder
// with tracing + journal installed globally (restored on cleanup), a
// service with a data directory, and the instrumented handler that mints
// and propagates trace identities — the same stack reveald wires up. A
// negative poolWorkers builds a pure coordinator with one fabric worker
// leasing over HTTP and archiving into the same data directory.
func newTracedService(t *testing.T, poolWorkers int) (*obs.Recorder, string, *httptest.Server) {
	t.Helper()
	rec := obs.New(obs.Options{TraceCapacity: 4096, TraceRing: true, EventCapacity: 256})
	prev := obs.Global()
	obs.SetGlobal(rec)
	t.Cleanup(func() { obs.SetGlobal(prev) })

	dataDir := t.TempDir()
	svc := New(Config{PoolWorkers: poolWorkers, QueueOptions: fastQueue(), CacheCapacity: 1, DataDir: dataDir})
	svc.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	})
	ts := httptest.NewServer(obs.InstrumentHandler(rec, RouteLabel, svc.Handler()))
	t.Cleanup(ts.Close)
	if poolWorkers < 0 {
		runFabricWorker(t, &FabricWorker{
			ID:     "remote",
			Client: NewClient(ts.URL),
			Runner: &Runner{Cache: core.NewTemplateCache(1), Workers: 1, DataDir: dataDir},
		})
	}
	return rec, dataDir, ts
}

// submitTraced posts a campaign spec with an optional X-Reveal-Trace-Id
// header and returns the echoed header plus the accepted job.
func submitTraced(t *testing.T, ts *httptest.Server, spec *CampaignSpec, traceID string) (string, jobs.Status) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/campaigns", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set(obs.TraceHeader, traceID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sub submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK &&
		resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit = HTTP %d", resp.StatusCode)
	}
	return resp.Header.Get(obs.TraceHeader), sub.Job
}

// TestTraceIDEndToEnd is the acceptance test for trace propagation: one
// client-supplied trace ID must surface, verbatim, in the HTTP response
// header, the job status, the service journal, the per-job manifest.json,
// run.log, and the trace.json flow events and stage spans — whether the
// in-process worker or a worker leasing over HTTP runs the job.
func TestTraceIDEndToEnd(t *testing.T) {
	t.Run("in-process", func(t *testing.T) { testTraceIDEndToEnd(t, 1) })
	t.Run("http-worker", func(t *testing.T) { testTraceIDEndToEnd(t, -1) })
}

func testTraceIDEndToEnd(t *testing.T, poolWorkers int) {
	rec, dataDir, ts := newTracedService(t, poolWorkers)
	const traceID = "e2e-trace-0001"

	// An attack campaign, so the attempt runs traced pipeline stages.
	spec := &CampaignSpec{Kind: KindAttack, Seed: 11, ProfileTracesPerValue: 4,
		Encryptions: 1, Workers: 1, Tenant: "acme"}
	echoed, st := submitTraced(t, ts, spec, traceID)
	// 1. HTTP response header.
	if echoed != traceID {
		t.Fatalf("response header echoed %q, want %q", echoed, traceID)
	}
	// 2. Job status, at submission and at completion.
	if st.TraceID != traceID || st.Tenant != "acme" {
		t.Fatalf("accepted job lost identity: %+v", st)
	}
	client := NewClient(ts.URL)
	waitCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done, err := client.WaitDone(waitCtx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != jobs.StateDone {
		t.Fatalf("campaign ended %s: %s", done.State, done.Error)
	}
	if done.TraceID != traceID {
		t.Fatalf("finished status trace = %q", done.TraceID)
	}
	if done.RunSeconds <= 0 || done.QueueWaitSeconds <= 0 {
		t.Fatalf("status durations not populated: %+v", done)
	}

	// 3. Service journal: the whole lifecycle stamped with the ID.
	events, _ := rec.Events().Since(0, 1000)
	lifecycle := map[string]bool{}
	for _, ev := range events {
		if ev.TraceID == traceID {
			lifecycle[ev.Type] = true
			if ev.JobID != "" && ev.JobID != st.ID {
				t.Fatalf("trace %s attributed to foreign job %s", traceID, ev.JobID)
			}
		}
	}
	for _, typ := range []string{obs.EventJobSubmitted, obs.EventJobLeased, obs.EventJobFinished} {
		if !lifecycle[typ] {
			t.Errorf("journal missing %s for trace %s (saw %v)", typ, traceID, lifecycle)
		}
	}

	// 4. Per-job manifest.json.
	dir := filepath.Join(dataDir, st.ID)
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m obs.Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.TraceID != traceID {
		t.Fatalf("manifest trace = %q, want %q", m.TraceID, traceID)
	}

	// 5. run.log: every record carries the trace_id attribute.
	logData, err := os.ReadFile(filepath.Join(dir, "run.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(logData), traceID) {
		t.Fatalf("run.log does not mention the trace ID:\n%s", logData)
	}

	// 6. trace.json: a standalone Chrome trace with the flow events and the
	// stage spans of this request. The artifact is exported by the runner
	// before the queue finalizes the job, so it carries the submit (s) and
	// attempt (t) nodes; the finish terminator (f) is emitted at
	// finalization and lives in the daemon-wide trace ring.
	traceData, err := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
		Metadata    map[string]any   `json:"metadata"`
	}
	if err := json.Unmarshal(traceData, &doc); err != nil {
		t.Fatalf("trace.json is not valid JSON: %v", err)
	}
	if doc.Metadata["trace_id"] != traceID {
		t.Fatalf("trace.json metadata = %v", doc.Metadata)
	}
	phases := map[string]bool{}
	spans := 0
	for _, ev := range doc.TraceEvents {
		if ev.ID == traceID {
			phases[ev.Phase] = true
		}
		if ev.Phase == "X" && ev.Args["trace_id"] == traceID {
			spans++
		}
	}
	for _, ph := range []string{obs.FlowStart, obs.FlowStep} {
		if !phases[ph] {
			t.Errorf("trace.json missing flow phase %q (saw %v)", ph, phases)
		}
	}
	if spans == 0 {
		t.Error("trace.json holds no stage span stamped with the trace ID")
	}
	ringPhases := map[string]bool{}
	for _, ev := range rec.TraceEventsFor(traceID) {
		ringPhases[ev.Phase] = true
	}
	if !ringPhases[obs.FlowEnd] {
		t.Errorf("daemon trace ring missing the flow terminator (saw %v)", ringPhases)
	}
}

// TestTraceIDMintedAndSanitized covers the no-header and hostile-header
// paths: the middleware mints a valid ID when none is supplied and refuses
// to echo a malformed one into logs and journals.
func TestTraceIDMintedAndSanitized(t *testing.T) {
	_, _, ts := newTracedService(t, 1)

	echoed, st := submitTraced(t, ts, smallAttack(1), "")
	if !obs.ValidTraceID(echoed) {
		t.Fatalf("minted header %q is invalid", echoed)
	}
	if st.TraceID != echoed {
		t.Fatalf("job trace %q != echoed header %q", st.TraceID, echoed)
	}

	// In-range for an HTTP header but outside the trace-ID charset.
	hostile := "bad id!"
	echoed2, st2 := submitTraced(t, ts, smallAttack(1), hostile)
	if echoed2 == hostile || !obs.ValidTraceID(echoed2) {
		t.Fatalf("malformed header echoed back: %q", echoed2)
	}
	if st2.TraceID != echoed2 {
		t.Fatalf("job trace %q != replacement header %q", st2.TraceID, echoed2)
	}
}

// TestStatsExposesKindsAndLatency checks /api/v1/stats carries the
// dashboard payload: worker utilization, per-kind throughput, and the
// queue-wait / attempt-latency distributions for active kinds.
func TestStatsExposesKindsAndLatency(t *testing.T) {
	_, _, ts := newTracedService(t, 1)
	client := NewClient(ts.URL)
	ctx := context.Background()

	st, err := client.Submit(ctx, smallAttack(1))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, client, st.ID, 30*time.Second)

	stats, err := client.StatsFull(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Workers != 1 {
		t.Errorf("workers = %d, want 1", stats.Workers)
	}
	if stats.UptimeSeconds <= 0 {
		t.Errorf("uptime = %g", stats.UptimeSeconds)
	}
	var attack *jobs.KindStats
	for i := range stats.Kinds {
		if stats.Kinds[i].Kind == KindAttack {
			attack = &stats.Kinds[i]
		}
	}
	if attack == nil || attack.Submitted != 1 || attack.Done != 1 {
		t.Fatalf("per-kind stats = %+v", stats.Kinds)
	}
	if lat, ok := stats.AttemptLatency[KindAttack]; !ok || lat.Count != 1 {
		t.Errorf("attempt latency for %s = %+v, %v", KindAttack, stats.AttemptLatency[KindAttack], ok)
	}
	if qw, ok := stats.QueueWait[KindAttack]; !ok || qw.Count != 1 {
		t.Errorf("queue wait for %s = %+v, %v", KindAttack, stats.QueueWait[KindAttack], ok)
	}
}
