package service

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"reveal/internal/core"
	"reveal/internal/jobs"
)

// waitRunning polls until the job is leased and running.
func waitRunning(t *testing.T, client *Client, id string) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := client.Campaign(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == jobs.StateRunning {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never ran: %s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitDone waits up to limit for the job to finish and checks it is done.
func waitDone(t *testing.T, client *Client, id string, limit time.Duration) jobs.Status {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	st, err := client.WaitDone(ctx, id, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != jobs.StateDone {
		t.Fatalf("job %s ended %s: %s", id, st.State, st.Error)
	}
	return st
}

// waitIdle polls until none of w's slots runs an attempt.
func waitIdle(t *testing.T, w *FabricWorker) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, busy := w.Stats(); busy == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("worker still busy after 5s")
		}
	}
}

// TestRunnerPanicIsAFailedAttempt: a runner panic on a fabric worker fails
// only its attempt — the worker survives and reports the failure, and the
// retried job completes on attempt 2. The panic comes from the first
// template lookup, inside the local cache's training run, so the retry
// also shows that the panic left the key free.
func TestRunnerPanicIsAFailedAttempt(t *testing.T) {
	_, client := newTestService(t, Config{PoolWorkers: -1})
	coord := &testCoordinator{Coordinator: client}
	coord.panics.Store(1)
	runFabricWorker(t, &FabricWorker{
		ID:     "panicky",
		Client: coord,
		Runner: &Runner{Cache: core.NewTemplateCache(1), Workers: 1},
	})
	st, err := client.Submit(context.Background(), smallAttack(3))
	if err != nil {
		t.Fatal(err)
	}
	if done := waitDone(t, client, st.ID, 60*time.Second); done.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (panic then success)", done.Attempts)
	}
}

// TestDrainTimeoutCancelsRunning: when the drain deadline passes, the
// in-process worker cancels its running attempt and reports the failure,
// so the job requeues for a later attempt instead of being lost, and
// Shutdown returns the deadline error.
func TestDrainTimeoutCancelsRunning(t *testing.T) {
	svc := New(Config{PoolWorkers: 1, QueueOptions: fastQueue()})
	svc.Start()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	client := NewClient(ts.URL)
	spec := smallAttack(1)
	spec.Encryptions = 1000 // far past the drain deadline
	st, err := client.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, client, st.ID)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := svc.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want the drain deadline error", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("hard stop took %v", took)
	}
	got, _ := svc.Queue().Get(st.ID)
	if got.State != jobs.StateQueued || got.Attempts != 1 || !strings.Contains(got.Error, "canceled") {
		t.Fatalf("job after hard stop = %+v, want requeued after 1 canceled attempt", got)
	}
	if _, busy := svc.worker.Stats(); busy != 0 {
		t.Fatalf("busy slots after hard stop = %d", busy)
	}
}

// TestDeadlineCancelsRunningAttempt: the worker bounds the attempt's
// context by the job's absolute deadline, so an overrunning attempt is
// canceled and the job fails without a retry.
func TestDeadlineCancelsRunningAttempt(t *testing.T) {
	_, client := newTestService(t, Config{PoolWorkers: 1})
	spec := smallAttack(1)
	spec.Encryptions = 1000 // far past the deadline
	spec.TimeoutMS = 100
	st, err := client.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done, err := client.WaitDone(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != jobs.StateFailed || done.Attempts != 1 || !strings.HasPrefix(done.Error, "deadline exceeded") {
		t.Fatalf("job = %s after %d attempts (%q), want failed past its deadline on attempt 1",
			done.State, done.Attempts, done.Error)
	}
}

// TestWorkerShutdownDrains is the worker node's SIGTERM drain: Shutdown
// stops leasing, the held job finishes and is reported on its first
// attempt, Run returns, and queued work is left for other workers.
func TestWorkerShutdownDrains(t *testing.T) {
	svc, client := newTestService(t, Config{PoolWorkers: -1})
	w := &FabricWorker{
		ID:       "draining",
		Client:   client,
		Runner:   &Runner{Cache: core.NewTemplateCache(1)},
		LeaseTTL: 400 * time.Millisecond,
		PollWait: 200 * time.Millisecond,
	}
	runErr := make(chan error, 1)
	go func() { runErr <- w.Run(context.Background()) }()
	ctx := context.Background()

	// Long enough to be in flight when the drain starts.
	spec := smallAttack(1)
	spec.Encryptions = 50
	first, err := client.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Drain once the worker holds the lease: the coordinator shows the job
	// running as soon as it grants it, before the lease response arrives.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, busy := w.Stats(); busy == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never started the job")
		}
	}
	second, err := client.Submit(ctx, smallAttack(2))
	if err != nil {
		t.Fatal(err)
	}
	drainCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := w.Shutdown(drainCtx); err != nil {
		t.Fatalf("drain = %v, want clean", err)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run after drain = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after Shutdown")
	}
	if done, _ := svc.Queue().Get(first.ID); done.State != jobs.StateDone || done.Attempts != 1 {
		t.Fatalf("in-flight job after drain = %+v, want done on attempt 1", done)
	}
	if left, _ := svc.Queue().Get(second.ID); left.State != jobs.StateQueued || left.Attempts != 0 {
		t.Fatalf("queued job after drain = %+v, want untouched", left)
	}
}

// TestWorkerSlotsRunConcurrently: an in-process worker with four slots
// runs four jobs at once, and /api/v1/stats reports its slots.
func TestWorkerSlotsRunConcurrently(t *testing.T) {
	svc, client := newTestService(t, Config{PoolWorkers: 4})
	ctx := context.Background()
	// Long enough that all four overlap.
	spec := smallAttack(1)
	spec.Encryptions = 20
	var ids []string
	for i := 0; i < 4; i++ {
		st, err := client.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, running := svc.Queue().Depth()
		if _, busy := svc.worker.Stats(); running == 4 && busy == 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never ran 4 jobs at once: running %d", running)
		}
		time.Sleep(5 * time.Millisecond)
	}
	stats, err := client.StatsFull(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Workers != 4 || stats.Leased != 4 {
		t.Fatalf("stats = %d workers, %d leased; want 4, 4", stats.Workers, stats.Leased)
	}
	for _, id := range ids {
		waitDone(t, client, id, 60*time.Second)
	}
}

// TestCancelLeasedJobOverFabric: a DELETE of a job leased by a remote
// worker finalizes it at once — the response and the next GET both read
// failed/canceled — and the worker abandons the attempt at its next
// renewal, freeing its slot for the next job.
func TestCancelLeasedJobOverFabric(t *testing.T) {
	_, client := newTestService(t, Config{PoolWorkers: -1})
	coord := &testCoordinator{Coordinator: client, hold: make(chan struct{}), serve: true}
	w := newFabricWorker(t, "holder", coord, 1)
	ctx := context.Background()
	st, err := client.Submit(ctx, smallAttack(1))
	if err != nil {
		t.Fatal(err)
	}
	if cur := waitRunning(t, client, st.ID); cur.LeaseWorker != "holder" {
		t.Fatalf("lease holder = %q", cur.LeaseWorker)
	}
	waitGets(t, coord, 1)
	canceled, err := client.Cancel(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if canceled.State != jobs.StateFailed || canceled.Error != "canceled" {
		t.Fatalf("DELETE response = %s (%q), want failed/canceled", canceled.State, canceled.Error)
	}
	if got, err := client.Campaign(ctx, st.ID); err != nil || got.State != jobs.StateFailed || got.Error != "canceled" {
		t.Fatalf("GET after DELETE = %+v, %v", got, err)
	}
	// The attempt ends at the worker's next renewal, its lookup still held.
	waitIdle(t, w)
	close(coord.hold)
	next, err := client.Submit(ctx, smallAttack(2))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, client, next.ID, 5*time.Second)
}
