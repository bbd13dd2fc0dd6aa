package jobs

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fastOptions keeps retry latencies test-friendly.
func fastOptions() Options {
	return Options{
		MaxAttempts: 3,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  40 * time.Millisecond,
		JitterSeed:  7,
	}
}

// mustLease leases the next eligible job right now, failing the test when
// none is eligible.
func mustLease(t *testing.T, q *Queue, worker string) *LeasedJob {
	t.Helper()
	lj, _, _, err := q.Lease(worker, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if lj == nil {
		t.Fatal("no job eligible for lease")
	}
	return lj
}

func TestJobSucceedsFirstAttempt(t *testing.T) {
	q := NewQueue(fastOptions())
	st, err := q.Submit(Spec{Kind: "t"})
	if err != nil {
		t.Fatal(err)
	}
	lj := mustLease(t, q, "w1")
	if lj.ID != st.ID {
		t.Fatalf("leased %s, want %s", lj.ID, st.ID)
	}
	done, err := q.CompleteLease(lj.ID, "w1", lj.Token, "ok:"+lj.ID, "")
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone || done.Result != "ok:"+st.ID {
		t.Fatalf("completed = %+v", done)
	}
	if done.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", done.Attempts)
	}
	if done.StartedAt == nil || done.FinishedAt == nil {
		t.Fatalf("missing timestamps: %+v", done)
	}
}

// TestRetryBackoffOrdering fails a job twice and completes it on the third
// attempt: each failure requeues it behind a backoff gate inside the
// jittered exponential envelope (base·2^(k−1) scaled into [0.5, 1.5)), the
// gate holds until it opens, and the attempts count up.
func TestRetryBackoffOrdering(t *testing.T) {
	opts := fastOptions()
	q := NewQueue(opts)
	st, err := q.Submit(Spec{Kind: "flaky"})
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k < 3; k++ {
		lj := mustLease(t, q, "w1")
		if lj.Attempts != k {
			t.Fatalf("attempt %d leased as attempt %d", k, lj.Attempts)
		}
		failedAt := time.Now()
		retry, err := q.CompleteLease(lj.ID, "w1", lj.Token, nil, fmt.Sprintf("transient %d", k))
		if err != nil {
			t.Fatal(err)
		}
		if retry.State != StateQueued || retry.NotBefore == nil || retry.Error != fmt.Sprintf("transient %d", k) {
			t.Fatalf("after failure %d: %+v", k, retry)
		}
		envelope := opts.BackoffBase << (k - 1)
		gap := retry.NotBefore.Sub(failedAt)
		if gap < envelope/2 || gap > 3*envelope/2+50*time.Millisecond {
			t.Errorf("attempt %d backoff %v outside the [%v, %v) envelope", k+1, gap, envelope/2, 3*envelope/2)
		}
		if gated, wait, _, _ := q.Lease("w1", time.Second); gated != nil || wait <= 0 {
			t.Fatalf("backoff gate open early: lease %+v, wait %v", gated, wait)
		}
		time.Sleep(time.Until(*retry.NotBefore))
	}
	lj := mustLease(t, q, "w1")
	done, err := q.CompleteLease(lj.ID, "w1", lj.Token, "recovered", "")
	if err != nil {
		t.Fatal(err)
	}
	if done.ID != st.ID || done.State != StateDone || done.Attempts != 3 || done.Result != "recovered" {
		t.Fatalf("final = %+v, want done on attempt 3", done)
	}
}

func TestJobFailsAfterMaxAttempts(t *testing.T) {
	q := NewQueue(fastOptions())
	st, err := q.Submit(Spec{Kind: "doomed"})
	if err != nil {
		t.Fatal(err)
	}
	var last Status
	for k := 1; k <= 3; k++ {
		lj := leaseNow(t, q, "w1", time.Second)
		if last, err = q.CompleteLease(lj.ID, "w1", lj.Token, nil, "permanent"); err != nil {
			t.Fatal(err)
		}
	}
	if last.ID != st.ID || last.State != StateFailed || last.Attempts != 3 || last.Error != "permanent" {
		t.Fatalf("failed = %+v", last)
	}
	if lj, _, _, _ := q.Lease("w1", time.Second); lj != nil {
		t.Fatalf("exhausted job leased again: %+v", lj)
	}
}

// TestDeadlineExpiryWhileRunning: the lease hands the absolute deadline to
// the worker, and an attempt that fails after it passed fails the job
// terminally (no retry — the deadline covers all attempts).
func TestDeadlineExpiryWhileRunning(t *testing.T) {
	q := NewQueue(fastOptions())
	st, err := q.Submit(Spec{Kind: "slow", Timeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	lj := mustLease(t, q, "w1")
	if st.Deadline == nil || !lj.Deadline.Equal(*st.Deadline) {
		t.Fatalf("lease deadline %v, want the job's %v", lj.Deadline, st.Deadline)
	}
	time.Sleep(time.Until(lj.Deadline) + 5*time.Millisecond)
	failed, err := q.CompleteLease(lj.ID, "w1", lj.Token, nil, "context deadline exceeded")
	if err != nil {
		t.Fatal(err)
	}
	if failed.State != StateFailed || !strings.HasPrefix(failed.Error, "deadline exceeded") {
		t.Fatalf("job = %+v, want failed past its deadline", failed)
	}
	if failed.Attempts != 1 {
		t.Fatalf("deadline-failed job retried: attempts = %d", failed.Attempts)
	}
}

// TestDeadlineExpiryWhileQueued: a short-deadline job queued behind a
// leased one fails without ever being leased.
func TestDeadlineExpiryWhileQueued(t *testing.T) {
	q := NewQueue(fastOptions())
	if _, err := q.Submit(Spec{Kind: "blocker"}); err != nil {
		t.Fatal(err)
	}
	first := mustLease(t, q, "w1")
	second, err := q.Submit(Spec{Kind: "starved", Timeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if lj, _, _, _ := q.Lease("w2", time.Second); lj != nil {
		t.Fatalf("expired job leased: %+v", lj)
	}
	failed, _ := q.Get(second.ID)
	if failed.State != StateFailed || failed.Attempts != 0 || failed.Error != "deadline exceeded while queued" {
		t.Fatalf("queued-expired job = %+v", failed)
	}
	if done, err := q.CompleteLease(first.ID, "w1", first.Token, "done", ""); err != nil || done.State != StateDone {
		t.Fatalf("blocker completion = %+v, %v", done, err)
	}
}

// TestCancelRunning cancels a leased job: it fails as canceled at once,
// without retrying, and its lease is revoked — Revoked closes for an
// in-process holder and the holder's late verdict is rejected.
func TestCancelRunning(t *testing.T) {
	opts := fastOptions()
	opts.TenantQuota = 1
	q := NewQueue(opts)
	st, err := q.Submit(Spec{Kind: "victim", Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	lj := mustLease(t, q, "w1")
	if err := q.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	select {
	case <-lj.Revoked:
	default:
		t.Fatal("cancel did not revoke the lease")
	}
	failed, _ := q.Get(st.ID)
	if failed.State != StateFailed || failed.Error != "canceled" || failed.LeaseWorker != "" {
		t.Fatalf("canceled job = %+v, want failed/canceled with no lease", failed)
	}
	if failed.Attempts != 1 {
		t.Fatalf("canceled job retried: attempts = %d", failed.Attempts)
	}
	if q.Leased() != 0 {
		t.Fatalf("leased = %d after cancel, want 0", q.Leased())
	}
	if queued, running := q.Depth(); queued != 0 || running != 0 {
		t.Fatalf("depth after cancel = (%d, %d)", queued, running)
	}
	if _, err := q.CompleteLease(lj.ID, "w1", lj.Token, "late", ""); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("completion after cancel = %v, want ErrLeaseLost", err)
	}
	// The tenant's quota slot is free again.
	if _, err := q.Submit(Spec{Kind: "next", Tenant: "acme"}); err != nil {
		t.Fatalf("submit after cancel = %v", err)
	}
}

// TestCancelQueued cancels a job before any worker leases it; canceling an
// unknown job is an error and canceling a finished one a no-op.
func TestCancelQueued(t *testing.T) {
	q := NewQueue(fastOptions())
	if _, err := q.Submit(Spec{Kind: "blocker"}); err != nil {
		t.Fatal(err)
	}
	first := mustLease(t, q, "w1")
	second, err := q.Submit(Spec{Kind: "queued"})
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Cancel(second.ID); err != nil {
		t.Fatal(err)
	}
	failed, _ := q.Get(second.ID)
	if failed.State != StateFailed || failed.Attempts != 0 || failed.Error != "canceled" {
		t.Fatalf("canceled queued job = %+v", failed)
	}
	if lj, _, _, _ := q.Lease("w2", time.Second); lj != nil {
		t.Fatalf("canceled job leased: %+v", lj)
	}
	if err := q.Cancel("job-999999"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("cancel of unknown job = %v, want ErrUnknownJob", err)
	}
	if _, err := q.CompleteLease(first.ID, "w1", first.Token, "done", ""); err != nil {
		t.Fatal(err)
	}
	if err := q.Cancel(first.ID); err != nil {
		t.Fatal(err)
	}
	if done, _ := q.Get(first.ID); done.State != StateDone {
		t.Fatalf("cancel rewrote a finished job: %+v", done)
	}
}

// TestGracefulDrain is the queue side of a drain: StopAccepting rejects
// new submissions while the held lease still renews and completes.
func TestGracefulDrain(t *testing.T) {
	q := NewQueue(fastOptions())
	st, err := q.Submit(Spec{Kind: "inflight"})
	if err != nil {
		t.Fatal(err)
	}
	lj := mustLease(t, q, "w1")
	q.StopAccepting()
	if _, err := q.Submit(Spec{Kind: "late"}); err == nil {
		t.Fatal("queue kept accepting submissions during drain")
	}
	if _, err := q.RenewLease(lj.ID, "w1", lj.Token, time.Second); err != nil {
		t.Fatalf("renewal during drain = %v", err)
	}
	done, err := q.CompleteLease(lj.ID, "w1", lj.Token, "drained", "")
	if err != nil {
		t.Fatal(err)
	}
	if done.ID != st.ID || done.State != StateDone || done.Result != "drained" {
		t.Fatalf("in-flight job after drain = %+v", done)
	}
}

// TestFIFOOrdering checks jobs are leased in submission order.
func TestFIFOOrdering(t *testing.T) {
	q := NewQueue(fastOptions())
	var ids []string
	for i := 0; i < 5; i++ {
		st, err := q.Submit(Spec{Kind: "seq"})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for i, id := range ids {
		if lj := mustLease(t, q, "w1"); lj.ID != id {
			t.Fatalf("lease %d got %s, want %s (submission order %v)", i, lj.ID, id, ids)
		}
	}
}

// TestConcurrentWorkers runs many jobs through several concurrent lease
// holders while submissions keep arriving (run under -race).
func TestConcurrentWorkers(t *testing.T) {
	q := NewQueue(fastOptions())
	const n = 40
	var done atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(worker string) {
			defer wg.Done()
			for done.Load() < n {
				lj, _, wake, err := q.Lease(worker, time.Second)
				if err != nil {
					t.Error(err)
					return
				}
				if lj == nil {
					select {
					case <-wake:
					case <-time.After(10 * time.Millisecond):
					}
					continue
				}
				if _, err := q.CompleteLease(lj.ID, worker, lj.Token, nil, ""); err != nil {
					t.Error(err)
					return
				}
				done.Add(1)
			}
		}(fmt.Sprintf("w%d", w))
	}
	for i := 0; i < n; i++ {
		if _, err := q.Submit(Spec{Kind: "many"}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if got := done.Load(); got != n {
		t.Fatalf("ran %d jobs, want %d", got, n)
	}
	for _, st := range q.List() {
		if st.State != StateDone || st.Attempts != 1 {
			t.Fatalf("job after concurrent run = %+v", st)
		}
	}
	if queued, running := q.Depth(); queued != 0 || running != 0 || q.Leased() != 0 {
		t.Fatalf("depth after completion = (%d, %d), leased %d", queued, running, q.Leased())
	}
}

// TestQueueCapacity checks the submission bound counts queued and running
// jobs and frees as jobs finish.
func TestQueueCapacity(t *testing.T) {
	opts := fastOptions()
	opts.Capacity = 2
	q := NewQueue(opts)
	if _, err := q.Submit(Spec{Kind: "a"}); err != nil {
		t.Fatal(err)
	}
	lj := mustLease(t, q, "w1")
	if _, err := q.Submit(Spec{Kind: "b"}); err != nil {
		t.Fatalf("second submit rejected: %v", err)
	}
	if _, err := q.Submit(Spec{Kind: "c"}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit = %v, want ErrQueueFull", err)
	}
	if _, err := q.CompleteLease(lj.ID, "w1", lj.Token, nil, ""); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(Spec{Kind: "c"}); err != nil {
		t.Fatalf("submit after a job finished = %v", err)
	}
}
