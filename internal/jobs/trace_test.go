package jobs

import (
	"testing"
	"time"

	"reveal/internal/obs"
)

// tracedFixture installs a recorder with tracing and a journal, builds a
// queue whose metrics bind to it, and restores the previous global
// recorder on cleanup (the queue's metrics bind at NewQueue, mirroring the
// daemon's install-recorder-first startup order).
func tracedFixture(t *testing.T) (*obs.Recorder, *Queue) {
	t.Helper()
	rec := obs.New(obs.Options{TraceCapacity: 1024, TraceRing: true, EventCapacity: 64})
	prev := obs.Global()
	obs.SetGlobal(rec)
	t.Cleanup(func() { obs.SetGlobal(prev) })
	return rec, NewQueue(Options{MaxAttempts: 2, BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond})
}

// TestTraceAndTenantPropagation submits a traced, tenant-tagged job and
// follows the identity across the queue: the lease handed to the worker,
// the status snapshot (with queue-wait/run durations), the per-kind and
// per-tenant metrics, the service journal, and the flow terminator must
// all carry it.
func TestTraceAndTenantPropagation(t *testing.T) {
	const traceID = "jobs-trace-0001"
	rec, q := tracedFixture(t)

	st, err := q.Submit(Spec{Kind: "sleep", TraceID: traceID, Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	if st.TraceID != traceID || st.Tenant != "acme" {
		t.Fatalf("submitted snapshot lost identity: %+v", st)
	}
	time.Sleep(time.Millisecond)
	lj := mustLease(t, q, "w1")
	if lj.TraceID != traceID || lj.Tenant != "acme" || lj.Kind != "sleep" {
		t.Fatalf("lease lost identity: %+v", lj)
	}
	time.Sleep(time.Millisecond)
	done, err := q.CompleteLease(lj.ID, "w1", lj.Token, "ok", "")
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone || done.TraceID != traceID || done.Tenant != "acme" {
		t.Fatalf("terminal snapshot = %+v", done)
	}
	if done.QueueWaitSeconds <= 0 || done.RunSeconds <= 0 {
		t.Fatalf("durations not populated: wait=%g run=%g", done.QueueWaitSeconds, done.RunSeconds)
	}

	// Per-kind aggregates and histograms.
	kinds := q.StatsByKind()
	if len(kinds) != 1 || kinds[0].Kind != "sleep" || kinds[0].Submitted != 1 || kinds[0].Done != 1 {
		t.Fatalf("StatsByKind = %+v", kinds)
	}
	snap := rec.Registry().Snapshot()
	if got := snap.Histograms[obs.LabelKey(MetricQueueWait, "kind", "sleep")].Count; got != 1 {
		t.Errorf("queue-wait observations = %d, want 1", got)
	}
	if got := snap.Histograms[obs.LabelKey(MetricAttemptDuration, "kind", "sleep")].Count; got != 1 {
		t.Errorf("attempt-duration observations = %d, want 1", got)
	}
	if got := snap.Counters[obs.LabelKey(MetricTenantJobs, "tenant", "acme")]; got != 1 {
		t.Errorf("tenant counter = %d, want 1", got)
	}

	// Journal: the submitted→leased→finished lifecycle, all stamped.
	events, _ := rec.Events().Since(0, 100)
	want := map[string]bool{obs.EventJobSubmitted: false, obs.EventJobLeased: false, obs.EventJobFinished: false}
	for _, ev := range events {
		if ev.JobID != st.ID {
			continue
		}
		if ev.TraceID != traceID || ev.Tenant != "acme" || ev.Kind != "sleep" {
			t.Fatalf("journal event lost identity: %+v", ev)
		}
		if _, ok := want[ev.Type]; ok {
			want[ev.Type] = true
		}
	}
	for typ, seen := range want {
		if !seen {
			t.Errorf("journal missing %s for %s", typ, st.ID)
		}
	}

	// Flow events: the queue binds the finish terminator to the ID (the
	// worker emits the attempt step).
	phases := map[string]bool{}
	for _, ev := range rec.TraceEventsFor(traceID) {
		phases[ev.Phase] = true
	}
	if !phases[obs.FlowEnd] {
		t.Fatalf("flow terminator missing for %s: phases %v", traceID, phases)
	}
}

// TestRetryKeepsTraceAndCounts fails the first attempt: the retry must be
// journaled and counted per kind, the second lease must still carry the
// trace, and both attempts must land in the duration histogram.
func TestRetryKeepsTraceAndCounts(t *testing.T) {
	const traceID = "jobs-trace-retry"
	rec, q := tracedFixture(t)

	st, err := q.Submit(Spec{Kind: "flaky", TraceID: traceID})
	if err != nil {
		t.Fatal(err)
	}
	first := mustLease(t, q, "w1")
	if _, err := q.CompleteLease(first.ID, "w1", first.Token, nil, "induced"); err != nil {
		t.Fatal(err)
	}
	second := leaseNow(t, q, "w1", time.Second)
	for i, lj := range []*LeasedJob{first, second} {
		if lj.TraceID != traceID {
			t.Fatalf("attempt %d leased with trace %q", i+1, lj.TraceID)
		}
	}
	done, err := q.CompleteLease(second.ID, "w1", second.Token, "ok", "")
	if err != nil {
		t.Fatal(err)
	}
	if done.State != StateDone || done.Attempts != 2 {
		t.Fatalf("job = %s after %d attempts (%s), want done after 2", done.State, done.Attempts, done.Error)
	}
	kinds := q.StatsByKind()
	if len(kinds) != 1 || kinds[0].Retried != 1 || kinds[0].Done != 1 {
		t.Fatalf("StatsByKind after retry = %+v", kinds)
	}
	snap := rec.Registry().Snapshot()
	if got := snap.Counters[obs.LabelKey(MetricJobsTotal, "state", "retried")]; got != 1 {
		t.Errorf("retried counter = %d, want 1", got)
	}
	if got := snap.Histograms[obs.LabelKey(MetricAttemptDuration, "kind", "flaky")].Count; got != 2 {
		t.Errorf("attempt-duration observations = %d, want 2 (both attempts)", got)
	}
	var sawRetry bool
	events, _ := rec.Events().Since(0, 100)
	for _, ev := range events {
		if ev.Type == obs.EventJobRetried && ev.JobID == st.ID && ev.TraceID == traceID {
			sawRetry = true
		}
	}
	if !sawRetry {
		t.Error("journal missing the job_retried event")
	}
}
