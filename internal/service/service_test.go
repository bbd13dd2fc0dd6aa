package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"reveal/internal/bfv"
	"reveal/internal/core"
	"reveal/internal/jobs"
	"reveal/internal/obs"
	"reveal/internal/sampler"
)

// fastQueue keeps retry latencies test-friendly.
func fastQueue() jobs.Options {
	return jobs.Options{
		MaxAttempts: 3,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  40 * time.Millisecond,
	}
}

// newTestService assembles a service with an httptest front end.
func newTestService(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	if cfg.QueueOptions == (jobs.Options{}) {
		cfg.QueueOptions = fastQueue()
	}
	svc := New(cfg)
	svc.Start()
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	})
	return svc, NewClient(ts.URL)
}

// testAttackSpec is the campaign used by the end-to-end tests: paper
// parameters with a profiling campaign scaled down for test speed.
func testAttackSpec() *CampaignSpec {
	return &CampaignSpec{
		Kind:                  KindAttack,
		Seed:                  21,
		ProfileTracesPerValue: 8,
		Encryptions:           1,
		Workers:               2,
	}
}

// TestEndToEndAttackCampaign drives the full service path: submit an
// attack campaign over HTTP, wait for queued→done, fetch the result, and
// check it matches a direct replication of the runner's computation through
// the core API (same seeds, fresh devices — the service adds queueing and
// parallelism, never different numbers). A second submission of the same
// spec must hit the template cache and reproduce the identical result.
func TestEndToEndAttackCampaign(t *testing.T) {
	_, client := newTestService(t, Config{PoolWorkers: 1, CacheCapacity: 2})
	ctx := context.Background()
	spec := testAttackSpec()
	spec.KeepProbs = true

	st, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != jobs.StateQueued {
		t.Fatalf("submitted state = %s, want queued", st.State)
	}
	waitCtx, cancel := context.WithTimeout(ctx, 120*time.Second)
	defer cancel()
	done, err := client.WaitDone(waitCtx, st.ID, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != jobs.StateDone {
		t.Fatalf("campaign ended %s: %s", done.State, done.Error)
	}
	var got AttackCampaignResult
	if err := client.Result(ctx, st.ID, &got); err != nil {
		t.Fatal(err)
	}
	if got.CacheHit {
		t.Error("first campaign cannot be a cache hit")
	}
	if got.Coefficients != 2*1024 {
		t.Fatalf("coefficients = %d, want 2048", got.Coefficients)
	}
	if got.SignAcc < 0.9 {
		t.Errorf("sign accuracy %.3f implausibly low", got.SignAcc)
	}
	// The in-process worker publishes what it trains to the registry that
	// remote workers read.
	if stats, err := client.StatsFull(ctx); err != nil || stats.RegistryTemplates != 1 {
		t.Errorf("registry_templates = %d (%v) after the first campaign, want 1", stats.RegistryTemplates, err)
	}

	// Direct replication through core, bypassing the service entirely.
	profDev, popts := spec.deviceAndOptions()
	cls, err := core.Profile(profDev, popts)
	if err != nil {
		t.Fatal(err)
	}
	attackDev := core.NewDevice(spec.Seed ^ attackDeviceSalt)
	params := bfv.PaperParameters()
	prng := sampler.NewXoshiro256(spec.Seed ^ 0xABCD)
	kg := bfv.NewKeyGenerator(params, prng)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	_ = sk
	enc := bfv.NewEncryptor(params, pk, prng)
	pt := params.NewPlaintext()
	for i := range pt.Coeffs {
		pt.Coeffs[i] = uint64(i*31) % params.T
	}
	cap, err := core.CaptureEncryption(attackDev, params, enc, pt)
	if err != nil {
		t.Fatal(err)
	}
	out, err := cls.Attack(cap, params.N)
	if err != nil {
		t.Fatal(err)
	}
	wantV1, wantS1, err := out.E1.Accuracy(cap.Truth.E1)
	if err != nil {
		t.Fatal(err)
	}
	wantV2, wantS2, err := out.E2.Accuracy(cap.Truth.E2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(got.Runs))
	}
	r := got.Runs[0]
	if r.ValueAccE1 != wantV1 || r.SignAccE1 != wantS1 || r.ValueAccE2 != wantV2 || r.SignAccE2 != wantS2 {
		t.Errorf("service result (%.4f/%.4f, %.4f/%.4f) != direct core result (%.4f/%.4f, %.4f/%.4f)",
			r.ValueAccE1, r.SignAccE1, r.ValueAccE2, r.SignAccE2, wantV1, wantS1, wantV2, wantS2)
	}
	// last_probs: on the wire, one value → probability object per
	// coefficient, byte-identical to the map form; through the client, the
	// direct attack's dense posteriors.
	if !reflect.DeepEqual(got.LastProbs, out.E2.Probs) {
		t.Error("decoded last_probs differ from the direct attack's e2 posteriors")
	}
	var raw struct {
		LastProbs json.RawMessage `json:"last_probs"`
	}
	if err := client.Result(ctx, st.ID, &raw); err != nil {
		t.Fatal(err)
	}
	maps := make([]map[int]float64, len(out.E2.Probs))
	for i, post := range out.E2.Probs {
		maps[i] = map[int]float64{}
		for k, v := range post.Labels {
			maps[i][v] = post.P[k]
		}
	}
	wantJSON, err := json.Marshal(maps)
	if err != nil {
		t.Fatal(err)
	}
	var gotJSON bytes.Buffer
	if err := json.Compact(&gotJSON, raw.LastProbs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON.Bytes(), wantJSON) {
		t.Error("last_probs bytes differ from the map-form JSON of the posteriors")
	}

	// Same spec again: cache hit, identical numbers.
	st2, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	done2, err := client.WaitDone(waitCtx, st2.ID, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done2.State != jobs.StateDone {
		t.Fatalf("second campaign ended %s: %s", done2.State, done2.Error)
	}
	var got2 AttackCampaignResult
	if err := client.Result(ctx, st2.ID, &got2); err != nil {
		t.Fatal(err)
	}
	if !got2.CacheHit {
		t.Error("second identical campaign missed the template cache")
	}
	if got2.ValueAcc != got.ValueAcc || got2.SignAcc != got.SignAcc {
		t.Errorf("cache-hit campaign diverged: (%.4f, %.4f) vs (%.4f, %.4f)",
			got2.ValueAcc, got2.SignAcc, got.ValueAcc, got.SignAcc)
	}
	if got2.TemplateKey != got.TemplateKey {
		t.Errorf("template keys differ: %s vs %s", got2.TemplateKey, got.TemplateKey)
	}
}

// TestJobLifecycleOverHTTP observes queued → running → done through the
// API on one slot: while the first campaign's template lookup is held the
// second stays queued, and once released they finish in order.
func TestJobLifecycleOverHTTP(t *testing.T) {
	svc, client := newTestService(t, Config{PoolWorkers: -1})
	coord := &testCoordinator{Coordinator: svc, hold: make(chan struct{}), serve: true}
	newFabricWorker(t, "solo", coord, 1)
	ctx := context.Background()

	first, err := client.Submit(ctx, smallAttack(1))
	if err != nil {
		t.Fatal(err)
	}
	second, err := client.Submit(ctx, smallAttack(2))
	if err != nil {
		t.Fatal(err)
	}
	// The single slot must be on the first job; the second stays queued.
	waitRunning(t, client, first.ID)
	waitGets(t, coord, 1)
	st2, err := client.Campaign(ctx, second.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != jobs.StateQueued {
		t.Fatalf("second job = %s while first is running on 1 slot", st2.State)
	}
	close(coord.hold)
	done1 := waitDone(t, client, first.ID, 30*time.Second)
	done2 := waitDone(t, client, second.ID, 30*time.Second)
	if done2.StartedAt.Before(*done1.FinishedAt) {
		t.Fatalf("second job started at %v, before the first finished at %v", done2.StartedAt, done1.FinishedAt)
	}
	list, err := client.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("listed %d jobs, want 2", len(list))
	}
}

// TestRetryOverHTTP exercises the retry machinery through the API: a
// campaign whose first attempt fails (its first template lookup panics)
// succeeds on the second.
func TestRetryOverHTTP(t *testing.T) {
	svc, client := newTestService(t, Config{PoolWorkers: -1})
	coord := &testCoordinator{Coordinator: svc, serve: true}
	coord.panics.Store(1)
	newFabricWorker(t, "retrier", coord, 1)
	ctx := context.Background()
	st, err := client.Submit(ctx, smallAttack(1))
	if err != nil {
		t.Fatal(err)
	}
	waitCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	done, err := client.WaitDone(waitCtx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != jobs.StateDone || done.Attempts != 2 {
		t.Fatalf("job = %s after %d attempts, want done after 2 (%s)", done.State, done.Attempts, done.Error)
	}
	var res AttackCampaignResult
	if err := client.Result(ctx, st.ID, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 1 || res.Coefficients != 2*1024 {
		t.Fatalf("retried result = %d runs, %d coefficients; want the second attempt's 1 run of 2048",
			len(res.Runs), res.Coefficients)
	}
}

// TestCancelOverHTTP cancels a running campaign via DELETE: the response
// is already final, and the worker, leasing in process, drops the attempt
// at once — its template lookup still held — so its only slot is free for
// the next job.
func TestCancelOverHTTP(t *testing.T) {
	svc, client := newTestService(t, Config{PoolWorkers: -1})
	coord := &testCoordinator{Coordinator: svc, hold: make(chan struct{}), serve: true}
	w := newFabricWorker(t, "solo", coord, 1)
	ctx := context.Background()
	st, err := client.Submit(ctx, smallAttack(1))
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, client, st.ID)
	waitGets(t, coord, 1)
	done, err := client.Cancel(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != jobs.StateFailed || done.Error != "canceled" {
		t.Fatalf("canceled job = %s (%q)", done.State, done.Error)
	}
	waitIdle(t, w)
	close(coord.hold)
	next, err := client.Submit(ctx, smallAttack(2))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, client, next.ID, 10*time.Second)
}

// TestShutdownDrainsRunningJob verifies SIGTERM semantics at the service
// layer: Shutdown lets the in-flight job finish and rejects new work.
func TestShutdownDrainsRunningJob(t *testing.T) {
	cfg := Config{PoolWorkers: 1, QueueOptions: fastQueue()}
	svc := New(cfg)
	svc.Start()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := NewClient(ts.URL)
	ctx := context.Background()

	// Long enough to be in flight when the drain starts.
	spec := smallAttack(1)
	spec.Encryptions = 50
	st, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, client, st.ID)
	drainCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if err := svc.Shutdown(drainCtx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	done, err := client.Campaign(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != jobs.StateDone || done.Attempts != 1 {
		t.Fatalf("in-flight job after drain = %s on attempt %d (%s), want done on attempt 1",
			done.State, done.Attempts, done.Error)
	}
	if _, err := client.Submit(ctx, smallAttack(1)); err == nil {
		t.Fatal("submission accepted after shutdown")
	}
}

// TestAPIMountedNextToObservability mounts the service API through
// obs.ServeMetricsCfg and checks /healthz, /metrics, and /api/v1/stats all
// answer on one listener.
func TestAPIMountedNextToObservability(t *testing.T) {
	rec := obs.New(obs.Options{})
	svc := New(Config{PoolWorkers: 1, QueueOptions: fastQueue()})
	svc.Start()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx)
	}()
	srv, err := obs.ServeMetricsCfg(rec, "127.0.0.1:0", obs.ServeConfig{API: svc.Handler()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()
	for _, path := range []string{"/healthz", "/metrics", "/progress", "/api/v1/stats", "/api/v1/campaigns"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
	// The API works through the shared listener too.
	client := NewClient(base)
	st, err := client.Submit(context.Background(), smallAttack(1))
	if err != nil {
		t.Fatal(err)
	}
	waitCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if done, err := client.WaitDone(waitCtx, st.ID, 10*time.Millisecond); err != nil || done.State != jobs.StateDone {
		t.Fatalf("job over shared listener: %+v, %v", done, err)
	}
}

// TestSubmitValidation checks the API rejects malformed specs.
func TestSubmitValidation(t *testing.T) {
	_, client := newTestService(t, Config{PoolWorkers: 1})
	ctx := context.Background()
	if _, err := client.Submit(ctx, &CampaignSpec{Kind: "bogus"}); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := client.Submit(ctx, &CampaignSpec{Kind: KindAttack, Encryptions: 5000}); err == nil {
		t.Error("oversized campaign accepted")
	}
	// The retired sleep kind and its fields are refused like any other.
	for _, body := range []string{`{"kind":"sleep"}`, `{"kind":"attack","sleep_ms":10}`, `{"fail_attempts":1}`} {
		resp, err := http.Post(client.BaseURL+"/api/v1/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %s = HTTP %d, want 400", body, resp.StatusCode)
		}
	}
	if _, err := client.Campaign(ctx, "job-999999"); err == nil {
		t.Error("unknown job id returned no error")
	}
	if err := client.Result(ctx, "job-999999", &struct{}{}); err == nil {
		t.Error("result of unknown job returned no error")
	}
}
