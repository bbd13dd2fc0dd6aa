package jobs

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// leaseNow polls Lease until a job is granted (retried jobs sit behind a
// backoff gate) or the deadline passes.
func leaseNow(t *testing.T, q *Queue, worker string, ttl time.Duration) *LeasedJob {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		lj, _, _, err := q.Lease(worker, ttl)
		if err != nil {
			t.Fatal(err)
		}
		if lj != nil {
			return lj
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("no job leased before deadline")
	return nil
}

func TestLeaseCompleteSuccess(t *testing.T) {
	q := NewQueue(fastOptions())
	st, err := q.Submit(Spec{Kind: "t", Payload: map[string]any{"n": 1}, Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	lj := leaseNow(t, q, "w1", time.Second)
	if lj.ID != st.ID || lj.Token == "" || lj.Attempts != 1 {
		t.Fatalf("lease = %+v", lj)
	}
	if string(lj.Payload) != `{"n":1}` {
		t.Fatalf("payload = %s, want lazily serialized map", lj.Payload)
	}
	if got := q.Leased(); got != 1 {
		t.Fatalf("leased = %d, want 1", got)
	}
	done, err := q.CompleteLease(lj.ID, "w1", lj.Token, "result", "")
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone || done.Result != "result" || done.LeaseWorker != "" {
		t.Fatalf("completed = %+v", done)
	}
	if got := q.Leased(); got != 0 {
		t.Fatalf("leased after completion = %d, want 0", got)
	}
}

// TestLeaseExpiryRequeuesAndRejectsStaleCompletion is the dead-worker
// story: w1 leases a job and vanishes; the lease expires, the job requeues
// with its attempt counted, w2 leases it under a fresh token, and w1's
// late completion — and any duplicate — bounces off ErrLeaseLost. Only the
// current lease holder's verdict counts.
func TestLeaseExpiryRequeuesAndRejectsStaleCompletion(t *testing.T) {
	q := NewQueue(fastOptions())
	st, err := q.Submit(Spec{Kind: "t"})
	if err != nil {
		t.Fatal(err)
	}
	lj1 := leaseNow(t, q, "w1", 20*time.Millisecond)
	time.Sleep(30 * time.Millisecond)

	// Any queue observation reaps; the next Lease both requeues and grants.
	lj2 := leaseNow(t, q, "w2", time.Second)
	if lj2.ID != st.ID || lj2.Attempts != 2 {
		t.Fatalf("re-lease = %+v, want attempt 2 of %s", lj2, st.ID)
	}
	if lj2.Token == lj1.Token {
		t.Fatal("lease token did not rotate on re-grant")
	}
	mid, _ := q.Get(st.ID)
	if !strings.Contains(mid.Error, "lease expired (worker w1)") {
		t.Fatalf("requeue error = %q, want the expired lease named", mid.Error)
	}

	if _, err := q.CompleteLease(st.ID, "w1", lj1.Token, "stale", ""); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("stale completion error = %v, want ErrLeaseLost", err)
	}
	done, err := q.CompleteLease(st.ID, "w2", lj2.Token, "fresh", "")
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone || done.Result != "fresh" || done.Attempts != 2 {
		t.Fatalf("final = %+v", done)
	}
	// Duplicate completion of a finished job is idempotently rejected.
	if _, err := q.CompleteLease(st.ID, "w2", lj2.Token, "dup", ""); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("duplicate completion error = %v, want ErrLeaseLost", err)
	}
}

// TestLeaseExpiryOnFinalAttemptFails bounds the dead-worker requeue by the
// attempt budget.
func TestLeaseExpiryOnFinalAttemptFails(t *testing.T) {
	opts := fastOptions()
	opts.MaxAttempts = 1
	q := NewQueue(opts)
	st, err := q.Submit(Spec{Kind: "t"})
	if err != nil {
		t.Fatal(err)
	}
	leaseNow(t, q, "w1", 10*time.Millisecond)
	time.Sleep(20 * time.Millisecond)
	got, _ := q.Get(st.ID) // Get reaps
	if got.State != StateFailed || !strings.Contains(got.Error, "lease expired on final attempt") {
		t.Fatalf("job = %+v, want failed on final attempt", got)
	}
}

// TestDeadlineExpiredWhileLeased: a job whose absolute deadline passes
// while a dead worker holds its lease fails with the holder named, rather
// than requeueing for an attempt that could never meet the deadline.
func TestDeadlineExpiredWhileLeased(t *testing.T) {
	q := NewQueue(fastOptions())
	st, err := q.Submit(Spec{Kind: "t", Timeout: 25 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	leaseNow(t, q, "dead-worker", 10*time.Millisecond)
	time.Sleep(40 * time.Millisecond) // past both the lease and the deadline
	got, _ := q.Get(st.ID)
	if got.State != StateFailed {
		t.Fatalf("state = %s, want failed", got.State)
	}
	if !strings.Contains(got.Error, "deadline exceeded while leased by dead-worker") {
		t.Fatalf("error = %q, want the dead lease holder named", got.Error)
	}
}

func TestRenewLeaseExtendsAndRejectsStrangers(t *testing.T) {
	q := NewQueue(fastOptions())
	if _, err := q.Submit(Spec{Kind: "t"}); err != nil {
		t.Fatal(err)
	}
	lj := leaseNow(t, q, "w1", 50*time.Millisecond)
	exp, err := q.RenewLease(lj.ID, "w1", lj.Token, 500*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !exp.After(lj.LeaseExpiry) {
		t.Fatalf("renewal did not extend: %v -> %v", lj.LeaseExpiry, exp)
	}
	if _, err := q.RenewLease(lj.ID, "w2", lj.Token, time.Second); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("foreign renewal error = %v, want ErrLeaseLost", err)
	}
	if _, err := q.RenewLease(lj.ID, "w1", "lease-bogus", time.Second); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("bad-token renewal error = %v, want ErrLeaseLost", err)
	}
	if _, err := q.RenewLease("job-999999", "w1", lj.Token, time.Second); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown-job renewal error = %v, want ErrUnknownJob", err)
	}
}

// TestCanceledLeaseRenewalFails: cancellation of a leased job reaches a
// remote worker through its next heartbeat, and the aborted attempt's
// report cannot overwrite the canceled verdict.
func TestCanceledLeaseRenewalFails(t *testing.T) {
	q := NewQueue(fastOptions())
	st, err := q.Submit(Spec{Kind: "t"})
	if err != nil {
		t.Fatal(err)
	}
	lj := leaseNow(t, q, "w1", time.Second)
	if err := q.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := q.RenewLease(lj.ID, "w1", lj.Token, time.Second); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("renewal after cancel = %v, want ErrLeaseLost", err)
	}
	if _, err := q.CompleteLease(lj.ID, "w1", lj.Token, nil, "attempt aborted"); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("completion after cancel = %v, want ErrLeaseLost", err)
	}
	if got, _ := q.Get(st.ID); got.State != StateFailed || got.Error != "canceled" || got.Attempts != 1 {
		t.Fatalf("canceled job = %+v, want failed/canceled after 1 attempt", got)
	}
}

func TestTenantQuotaRejects(t *testing.T) {
	opts := fastOptions()
	opts.TenantQuota = 2
	q := NewQueue(opts)
	for i := 0; i < 2; i++ {
		if _, err := q.Submit(Spec{Kind: "t", Tenant: "acme"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := q.Submit(Spec{Kind: "t", Tenant: "acme"}); !errors.Is(err, ErrOverQuota) {
		t.Fatalf("over-quota submit = %v, want ErrOverQuota", err)
	}
	// Other tenants are unaffected; finishing a job frees quota.
	if _, err := q.Submit(Spec{Kind: "t", Tenant: "other"}); err != nil {
		t.Fatal(err)
	}
	lj := leaseNow(t, q, "w1", time.Second) // oldest: an acme job
	if _, err := q.CompleteLease(lj.ID, "w1", lj.Token, "ok", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(Spec{Kind: "t", Tenant: "acme"}); err != nil {
		t.Fatalf("post-completion submit = %v, want accepted", err)
	}
}
