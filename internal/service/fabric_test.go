package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"reveal/internal/core"
	"reveal/internal/jobs"
	"reveal/internal/jobs/wal"
)

// newFabricWorker assembles a worker node leasing from coord, with
// latencies tuned for tests, and runs it until test cleanup.
func newFabricWorker(t *testing.T, id string, coord Coordinator, slots int) *FabricWorker {
	t.Helper()
	return runFabricWorker(t, &FabricWorker{
		ID:     id,
		Client: coord,
		Runner: &Runner{Cache: core.NewTemplateCache(2), Workers: 1},
		Slots:  slots,
	})
}

// runFabricWorker tunes w's latencies for tests (unless set) and runs it
// until test cleanup.
func runFabricWorker(t *testing.T, w *FabricWorker) *FabricWorker {
	t.Helper()
	// A short TTL keeps heartbeats exercised (renew interval floors at
	// 100 ms); a short poll keeps idle slots responsive to cancel.
	if w.LeaseTTL == 0 {
		w.LeaseTTL = 400 * time.Millisecond
	}
	if w.PollWait == 0 {
		w.PollWait = 200 * time.Millisecond
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return w
}

// smallAttack is a one-encryption attack campaign whose profiling run
// trains in milliseconds.
func smallAttack(seed uint64) *CampaignSpec {
	return &CampaignSpec{Kind: KindAttack, Seed: seed, ProfileTracesPerValue: 4, Encryptions: 1, Workers: 1}
}

// testTemplates is the serialized classifier a serving testCoordinator
// answers with: smallAttack(0)'s templates, trained once per test binary.
var testTemplates = sync.OnceValues(func() ([]byte, error) {
	dev, popts := smallAttack(0).deviceAndOptions()
	cls, err := core.Profile(dev, popts)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = core.WriteClassifier(&buf, cls)
	return buf.Bytes(), err
})

// testCoordinator is the coordinator a test's FabricWorker leases through:
// the in-process *Server, which is what a -role all worker leases from, or
// a *Client for the HTTP path, with its template lookups steered by the
// test. TemplateGet counts every call, panics while panics is positive
// (the attempt fails), waits while hold is open until the test closes it
// or the attempt's context ends, and with serve answers every key with
// testTemplates, so a released job finishes after one encryption.
type testCoordinator struct {
	Coordinator
	hold   chan struct{}
	serve  bool
	panics atomic.Int32
	gets   atomic.Int32
}

func (c *testCoordinator) TemplateGet(ctx context.Context, key string) ([]byte, bool, error) {
	c.gets.Add(1)
	if c.panics.Add(-1) >= 0 {
		panic("template registry corrupted")
	}
	if c.hold != nil {
		select {
		case <-c.hold:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	if c.serve {
		blob, err := testTemplates()
		return blob, err == nil, err
	}
	return c.Coordinator.TemplateGet(ctx, key)
}

// waitGets polls until c has seen n template lookups: an attempt waiting
// on hold has reached it.
func waitGets(t *testing.T, c *testCoordinator, n int32) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); c.gets.Load() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d template lookups after 5s, want %d", c.gets.Load(), n)
		}
	}
}

// TestFabricEndToEnd drives the distributed path: a pure coordinator (no
// in-process worker) with a fabric worker leasing over HTTP. Every submitted
// job — including one whose first attempt fails and retries — must
// complete, with queue-wait/attempt accounting intact.
func TestFabricEndToEnd(t *testing.T) {
	svc, client := newTestService(t, Config{PoolWorkers: -1})
	coord := &testCoordinator{Coordinator: client, serve: true}
	coord.panics.Store(1)
	newFabricWorker(t, "node-a", coord, 2)
	ctx := context.Background()

	// One template key per job, so the failed lookup fails one job alone.
	var ids []string
	for seed := uint64(1); seed <= 3; seed++ {
		st, err := client.Submit(ctx, smallAttack(seed))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	var attempts []int
	for _, id := range ids {
		attempts = append(attempts, waitDone(t, client, id, 30*time.Second).Attempts)
	}
	slices.Sort(attempts)
	if !slices.Equal(attempts, []int{1, 1, 2}) {
		t.Fatalf("attempts per job = %v, want one job retried once", attempts)
	}
	if got := svc.Queue().Leased(); got != 0 {
		t.Fatalf("leased gauge after drain = %d, want 0", got)
	}
}

// TestFabricDeadWorkerRequeues is the worker-failure story: a "worker"
// leases a job and dies (never heartbeats, never completes). The lease
// expires, the coordinator requeues the job, a live worker finishes it on
// attempt 2, and the dead worker's late completion bounces off 409.
func TestFabricDeadWorkerRequeues(t *testing.T) {
	_, client := newTestService(t, Config{PoolWorkers: -1})
	ctx := context.Background()

	st, err := client.Submit(ctx, smallAttack(1))
	if err != nil {
		t.Fatal(err)
	}
	dead, err := client.LeaseJob(ctx, "doomed", 50*time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dead == nil || dead.ID != st.ID {
		t.Fatalf("lease = %+v, want %s", dead, st.ID)
	}
	time.Sleep(70 * time.Millisecond) // outlive the lease without heartbeating

	newFabricWorker(t, "survivor", client, 1)
	waitCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	done, err := client.WaitDone(waitCtx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != jobs.StateDone || done.Attempts != 2 {
		t.Fatalf("job after dead worker = %+v, want done on attempt 2", done)
	}
	// The dead worker comes back and reports its stale verdict.
	if _, err := client.CompleteJob(ctx, st.ID, "doomed", dead.Token, "stale", ""); StatusCode(err) != http.StatusConflict {
		t.Fatalf("stale completion = %v, want HTTP 409", err)
	}
}

// TestRemoteTemplateCacheSharesAcrossNodes: the first node trains and
// uploads to the coordinator registry; a second node's local miss resolves
// from the registry without re-profiling, and yields a byte-identical
// classifier.
func TestRemoteTemplateCacheSharesAcrossNodes(t *testing.T) {
	_, client := newTestService(t, Config{PoolWorkers: -1})
	ctx := context.Background()

	spec := &CampaignSpec{Kind: KindAttack, Seed: 7, ProfileTracesPerValue: 4, Encryptions: 1}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	dev, popts := spec.deviceAndOptions()
	key := core.TemplateCacheKey(dev, popts)
	var trains atomic.Int32
	train := func(ctx context.Context) (*core.CoefficientClassifier, error) {
		trains.Add(1)
		d, o := spec.deviceAndOptions() // fresh device per training run
		return core.ProfileCtx(ctx, d, o)
	}

	nodeA := &Runner{Cache: core.NewTemplateCache(2)}
	clsA, hitA, err := nodeA.templates(ctx, client, "node-a", key, train)
	if err != nil {
		t.Fatal(err)
	}
	if hitA || trains.Load() != 1 {
		t.Fatalf("first node: hit=%v trains=%d, want miss and one training run", hitA, trains.Load())
	}

	nodeB := &Runner{Cache: core.NewTemplateCache(2)}
	clsB, hitB, err := nodeB.templates(ctx, client, "node-b", key, train)
	if err != nil {
		t.Fatal(err)
	}
	if !hitB || trains.Load() != 1 {
		t.Fatalf("second node: hit=%v trains=%d, want registry hit and no retraining", hitB, trains.Load())
	}
	var bufA, bufB bytes.Buffer
	if err := core.WriteClassifier(&bufA, clsA); err != nil {
		t.Fatal(err)
	}
	if err := core.WriteClassifier(&bufB, clsB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatal("registry round-trip produced a different classifier")
	}
	// Third lookup is an in-process LRU hit: no registry traffic needed.
	if _, hit, err := nodeB.templates(ctx, client, "node-b", key, train); err != nil || !hit {
		t.Fatalf("local re-lookup: hit=%v err=%v", hit, err)
	}
}

// TestWaitingJobReportsCacheHit: a fabric worker with two slots leases two
// campaigns with one template key while the first one's templates are
// still being resolved. The second waits on that in-flight training run
// instead of reaching the registry or profiling, and reports cache_hit.
func TestWaitingJobReportsCacheHit(t *testing.T) {
	svc, client := newTestService(t, Config{PoolWorkers: -1})
	coord := &testCoordinator{Coordinator: client, hold: make(chan struct{})}
	w := runFabricWorker(t, &FabricWorker{
		ID:     "pair",
		Client: coord,
		Runner: &Runner{Cache: core.NewTemplateCache(1), Workers: 1},
		Slots:  2,
	})
	ctx := context.Background()
	spec := &CampaignSpec{Kind: KindAttack, Seed: 9, ProfileTracesPerValue: 4, Encryptions: 1, Workers: 1}
	var ids []string
	for i := 0; i < 2; i++ {
		st, err := client.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, busy := w.Stats(); busy == 2 && coord.gets.Load() == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the worker never held both campaigns with one lookup in flight")
		}
	}
	// The checks below hold whether the second attempt waits on the
	// in-flight run or finds it finished; the pause makes the wait the
	// path taken.
	time.Sleep(50 * time.Millisecond)
	close(coord.hold)
	hits := 0
	for _, id := range ids {
		waitDone(t, client, id, 60*time.Second)
		var res AttackCampaignResult
		if err := client.Result(ctx, id, &res); err != nil {
			t.Fatal(err)
		}
		if res.CacheHit {
			hits++
		}
	}
	if hits != 1 || coord.gets.Load() != 1 {
		t.Fatalf("%d of 2 campaigns report cache_hit after %d registry lookups; want 1 and 1",
			hits, coord.gets.Load())
	}
	if n := svc.registry.Len(); n != 1 {
		t.Fatalf("registry holds %d templates, want the one trained", n)
	}
}

// TestRegistryRefusesGarbage: the registry stores only bytes that read back
// as a classifier. A refused PUT answers 400, and the key stays absent.
func TestRegistryRefusesGarbage(t *testing.T) {
	svc, client := newTestService(t, Config{PoolWorkers: -1})
	ctx := context.Background()
	for _, blob := range [][]byte{[]byte("not a classifier"), nil} {
		if err := client.TemplatePut(ctx, "tmpl-garbage", blob); StatusCode(err) != http.StatusBadRequest {
			t.Fatalf("PUT of %q = %v, want HTTP 400", blob, err)
		}
		if _, ok, err := client.TemplateGet(ctx, "tmpl-garbage"); err != nil || ok {
			t.Fatalf("GET after a refused PUT: ok=%v err=%v, want 404", ok, err)
		}
		if err := svc.TemplatePut(ctx, "tmpl-garbage", blob); err == nil {
			t.Fatalf("in-process PUT of %q accepted", blob)
		}
	}
	if n := svc.registry.Len(); n != 0 {
		t.Fatalf("registry holds %d templates after refused PUTs", n)
	}
}

// TestSubmitBackpressure: over-quota and over-capacity submissions come
// back as HTTP 429 so clients know to back off, and capacity frees once
// jobs finish.
func TestSubmitBackpressure(t *testing.T) {
	opts := fastQueue()
	opts.Capacity = 2
	_, client := newTestService(t, Config{PoolWorkers: -1, QueueOptions: opts})
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		if _, err := client.Submit(ctx, smallAttack(1)); err != nil {
			t.Fatal(err)
		}
	}
	_, err := client.Submit(ctx, smallAttack(1))
	if StatusCode(err) != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit = %v, want HTTP 429", err)
	}
}

// flakyTransport fails the first `failures` requests at dial level, then
// delegates — the coordinator-restart shape the client retry must absorb.
type flakyTransport struct {
	failures atomic.Int32
	attempts atomic.Int32
}

func (f *flakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	f.attempts.Add(1)
	if f.failures.Add(-1) >= 0 {
		return nil, &net.OpError{Op: "dial", Net: "tcp", Err: syscall.ECONNREFUSED}
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestClientRetriesTransientDialErrors: connection-refused failures are
// retried with backoff until the server is reachable; server-side errors
// (which may have had effects) are not.
func TestClientRetriesTransientDialErrors(t *testing.T) {
	_, client := newTestService(t, Config{PoolWorkers: -1})
	flaky := &flakyTransport{}
	flaky.failures.Store(2)
	client.HTTPClient = &http.Client{Transport: flaky}
	client.RetryAttempts = 3
	client.RetryBase = time.Millisecond

	st, err := client.Submit(context.Background(), smallAttack(1))
	if err != nil {
		t.Fatalf("submit through flaky transport = %v, want success after retries", err)
	}
	if st.ID == "" || flaky.attempts.Load() != 3 {
		t.Fatalf("id=%q attempts=%d, want an accepted job on the third attempt", st.ID, flaky.attempts.Load())
	}

	// A 5xx response reached the server: re-issuing could double-apply, so
	// the client must surface it on the first attempt.
	var hits atomic.Int32
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer failing.Close()
	c2 := NewClient(failing.URL)
	c2.RetryAttempts = 3
	c2.RetryBase = time.Millisecond
	if _, err := c2.Submit(context.Background(), smallAttack(1)); StatusCode(err) != http.StatusInternalServerError {
		t.Fatalf("5xx submit = %v, want HTTP 500 surfaced", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("5xx request issued %d times, want exactly 1 (no retry)", hits.Load())
	}
}

// TestServiceWALRestart is the coordinator-restart acceptance story at the
// service layer: jobs accepted (202) before a restart are journaled,
// replayed into the next process, and run to completion there.
func TestServiceWALRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	log1, rep0, err := wal.Open(wal.Options{Dir: dir, SyncSubmits: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep0.Jobs) != 0 {
		t.Fatalf("fresh WAL replayed %d jobs", len(rep0.Jobs))
	}
	opts := fastQueue()
	opts.WAL = log1
	svc1 := New(Config{PoolWorkers: -1, QueueOptions: opts})
	svc1.Start()
	ts1 := httptest.NewServer(svc1.Handler())
	client1 := NewClient(ts1.URL)

	var ids []string
	for i := 0; i < 2; i++ {
		st, err := client1.Submit(ctx, smallAttack(1))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	// Restart: stop the listener, close the WAL cleanly (the crashier
	// paths are covered by the jobs-layer tests), open the next process.
	ts1.Close()
	if err := svc1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := log1.Close(); err != nil {
		t.Fatal(err)
	}

	log2, rep, err := wal.Open(wal.Options{Dir: dir, SyncSubmits: true})
	if err != nil {
		t.Fatal(err)
	}
	opts2 := fastQueue()
	opts2.WAL = log2
	svc2 := New(Config{PoolWorkers: 1, QueueOptions: opts2})
	requeued, terminal := svc2.Queue().Restore(rep, DecodeCampaignPayload)
	if requeued != 2 || terminal != 0 {
		t.Fatalf("restore = %d requeued, %d terminal; want 2, 0", requeued, terminal)
	}
	svc2.Start()
	ts2 := httptest.NewServer(svc2.Handler())
	client2 := NewClient(ts2.URL)
	t.Cleanup(func() {
		ts2.Close()
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc2.Shutdown(sctx)
		_ = log2.Close()
	})

	waitCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for _, id := range ids {
		st, err := client2.WaitDone(waitCtx, id, 10*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != jobs.StateDone {
			t.Fatalf("replayed job %s ended %s: %s", id, st.State, st.Error)
		}
	}
}

// TestRestoreFailsRetiredSleepJob is the upgrade path from a journal that
// holds a queued job of the retired "sleep" kind: the restart fails that
// job with the payload decode error instead of requeueing it, and an
// attack campaign submitted afterwards runs to completion.
func TestRestoreFailsRetiredSleepJob(t *testing.T) {
	dir := t.TempDir()
	log1, _, err := wal.Open(wal.Options{Dir: dir, SyncSubmits: true})
	if err != nil {
		t.Fatal(err)
	}
	// The job image a coordinator journaled for a queued
	// {"kind":"sleep","sleep_ms":8000,"tenant":"ci"} before the kind was
	// retired, byte for byte.
	var img wal.JobImage
	if err := json.Unmarshal([]byte(`{"id":"job-000001","kind":"sleep","tenant":"ci",`+
		`"payload":{"kind":"sleep","seed":0,"low_noise":false,"tenant":"ci","sleep_ms":8000},`+
		`"state":"queued","max_attempts":3,"submitted_at":"2026-10-20T19:03:33.152784145Z",`+
		`"finished_at":"0001-01-01T00:00:00Z","deadline":"0001-01-01T00:00:00Z",`+
		`"not_before":"0001-01-01T00:00:00Z","lease_expiry":"0001-01-01T00:00:00Z"}`), &img); err != nil {
		t.Fatal(err)
	}
	if _, err := log1.Append(wal.Record{Type: wal.RecSubmit, Job: img}); err != nil {
		t.Fatal(err)
	}
	if err := log1.Close(); err != nil {
		t.Fatal(err)
	}

	log2, rep, err := wal.Open(wal.Options{Dir: dir, SyncSubmits: true})
	if err != nil {
		t.Fatal(err)
	}
	opts := fastQueue()
	opts.WAL = log2
	svc := New(Config{PoolWorkers: 1, QueueOptions: opts})
	if requeued, terminal := svc.Queue().Restore(rep, DecodeCampaignPayload); requeued != 0 || terminal != 1 {
		t.Fatalf("restore = %d requeued, %d terminal; want 0, 1", requeued, terminal)
	}
	st, ok := svc.Queue().Get("job-000001")
	if !ok || st.State != jobs.StateFailed || !strings.Contains(st.Error, "payload decode failed") ||
		!strings.Contains(st.Error, `unknown campaign kind "sleep"`) {
		t.Fatalf("journaled sleep job after restore = %+v, want failed on its payload decode", st)
	}
	svc.Start()
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = svc.Shutdown(sctx)
		_ = log2.Close()
	})
	client := NewClient(ts.URL)
	next, err := client.Submit(context.Background(), smallAttack(1))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, client, next.ID, 30*time.Second)
}
