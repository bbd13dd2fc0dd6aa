package jobs

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"reveal/internal/jobs/wal"
	"reveal/internal/obs"
)

// walOptions builds fast queue options journaling into dir.
func walOptions(t *testing.T, dir string) Options {
	t.Helper()
	log, rep, err := wal.Open(wal.Options{Dir: dir, SyncSubmits: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = log.Close() })
	if len(rep.Jobs) != 0 {
		t.Fatalf("fresh WAL replayed %d jobs", len(rep.Jobs))
	}
	opts := fastOptions()
	opts.WAL = log
	return opts
}

// reopen simulates a process restart: a fresh WAL handle over the same
// directory (the "crashed" log's file handle is simply abandoned, like a
// killed process's would be), replayed into a fresh queue.
func reopen(t *testing.T, dir string, decode func(string, json.RawMessage) (any, error)) (*Queue, *wal.Replay, int, int) {
	t.Helper()
	log, rep, err := wal.Open(wal.Options{Dir: dir, SyncSubmits: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = log.Close() })
	opts := fastOptions()
	opts.WAL = log
	q := NewQueue(opts)
	requeued, terminal := q.Restore(rep, decode)
	return q, rep, requeued, terminal
}

// decodePayload is the test payload decoder: journaled payloads come back
// as generic maps.
func decodePayload(kind string, raw json.RawMessage) (any, error) {
	var v map[string]any
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, err
	}
	return v, nil
}

// TestCrashRecoveryLosesNoAcceptedJob is the WAL acceptance story: jobs in
// every non-terminal state at crash time (queued, leased-running) are
// re-enqueued on restart with their attempt history intact, finished jobs
// keep their results, and the job-ID counter resumes past the replayed
// maximum.
func TestCrashRecoveryLosesNoAcceptedJob(t *testing.T) {
	dir := t.TempDir()
	q := NewQueue(walOptions(t, dir))

	done, err := q.Submit(Spec{Kind: "t", Payload: map[string]any{"i": float64(1)}, Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := q.Submit(Spec{Kind: "t", Payload: map[string]any{"i": float64(2)}, Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	leased, err := q.Submit(Spec{Kind: "t", Payload: map[string]any{"i": float64(3)}, Tenant: "zap"})
	if err != nil {
		t.Fatal(err)
	}

	lj := leaseNow(t, q, "w1", time.Minute) // oldest: the to-be-done job
	if lj.ID != done.ID {
		t.Fatalf("leased %s, want oldest %s", lj.ID, done.ID)
	}
	if _, err := q.CompleteLease(lj.ID, "w1", lj.Token, map[string]any{"answer": float64(42)}, ""); err != nil {
		t.Fatal(err)
	}
	lj2 := leaseNow(t, q, "w2", time.Minute)
	if lj2.ID != leased.ID {
		// queued was submitted before leased; lease order is FIFO, so claim
		// the remaining one to leave `queued` waiting and `leased` running.
		lj2 = leaseNow(t, q, "w2", time.Minute)
	}

	// Crash: no snapshot, no graceful close — replay the journal tail alone.
	q2, rep, requeued, terminal := reopen(t, dir, decodePayload)
	if rep.SnapshotUsed {
		t.Fatal("no snapshot was written, but replay used one")
	}
	if requeued != 2 || terminal != 1 {
		t.Fatalf("restore = %d requeued, %d terminal; want 2, 1", requeued, terminal)
	}

	gotDone, ok := q2.Get(done.ID)
	if !ok || gotDone.State != StateDone {
		t.Fatalf("finished job after restart = %+v", gotDone)
	}
	if res, ok := gotDone.Result.(map[string]any); !ok || res["answer"] != float64(42) {
		t.Fatalf("finished job result lost: %+v", gotDone.Result)
	}
	for _, id := range []string{queued.ID, leased.ID} {
		st, ok := q2.Get(id)
		if !ok || st.State != StateQueued {
			t.Fatalf("job %s after restart = %+v, want queued", id, st)
		}
		if st.LeaseWorker != "" {
			t.Fatalf("job %s kept a dead lease: %+v", id, st)
		}
	}
	// The interrupted attempt is preserved, not erased.
	if st, _ := q2.Get(lj2.ID); st.Attempts != 1 {
		t.Fatalf("requeued running job attempts = %d, want 1", st.Attempts)
	}

	// The restored queue hands out work with decoded payloads and fresh IDs.
	lj3 := leaseNow(t, q2, "w3", time.Minute)
	next, err := q2.Submit(Spec{Kind: "t"})
	if err != nil {
		t.Fatal(err)
	}
	if next.ID <= lj3.ID || next.ID == done.ID {
		t.Fatalf("post-restart ID %s did not advance past replayed jobs", next.ID)
	}
}

// TestCrashBetweenSnapshotAndTail: jobs submitted after a snapshot live
// only in the journal tail; a crash must surface both the snapshotted and
// the post-snapshot jobs.
func TestCrashBetweenSnapshotAndTail(t *testing.T) {
	dir := t.TempDir()
	q := NewQueue(walOptions(t, dir))
	before, err := q.Submit(Spec{Kind: "t", Payload: map[string]any{"phase": "pre"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := q.SnapshotWAL(); err != nil {
		t.Fatal(err)
	}
	after, err := q.Submit(Spec{Kind: "t", Payload: map[string]any{"phase": "post"}})
	if err != nil {
		t.Fatal(err)
	}

	q2, rep, requeued, terminal := reopen(t, dir, decodePayload)
	if !rep.SnapshotUsed {
		t.Fatal("snapshot not used on replay")
	}
	if requeued != 2 || terminal != 0 {
		t.Fatalf("restore = %d requeued, %d terminal; want 2, 0", requeued, terminal)
	}
	for _, id := range []string{before.ID, after.ID} {
		if st, ok := q2.Get(id); !ok || st.State != StateQueued {
			t.Fatalf("job %s = %+v, want queued", id, st)
		}
	}
	// Both jobs execute with their payloads intact.
	for i := 0; i < 2; i++ {
		lj := leaseNow(t, q2, "w", time.Minute)
		var p map[string]any
		if err := json.Unmarshal(lj.Payload, &p); err != nil || p["phase"] == nil {
			t.Fatalf("payload of %s = %s (%v)", lj.ID, lj.Payload, err)
		}
		if _, err := q2.CompleteLease(lj.ID, "w", lj.Token, "ok", ""); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestoreStartRecords: journals written while single-process daemons
// ran a local pool mark each attempt with a start record instead of a
// lease. They still restore: a job caught mid-attempt requeues with its
// attempt counted.
func TestRestoreStartRecords(t *testing.T) {
	dir := t.TempDir()
	opts := walOptions(t, dir)
	q := NewQueue(opts)
	st, err := q.Submit(Spec{Kind: "t", Payload: map[string]any{"v": float64(1)}})
	if err != nil {
		t.Fatal(err)
	}
	start := wal.Record{Type: wal.RecStart, Job: wal.JobImage{ID: st.ID, State: string(StateRunning), Attempts: 1}}
	if _, err := opts.WAL.Append(start); err != nil {
		t.Fatal(err)
	}

	q2, _, requeued, terminal := reopen(t, dir, decodePayload)
	if requeued != 1 || terminal != 0 {
		t.Fatalf("restore = %d requeued, %d terminal; want 1, 0", requeued, terminal)
	}
	if got, _ := q2.Get(st.ID); got.State != StateQueued || got.Attempts != 1 {
		t.Fatalf("job after restore = %+v, want queued after 1 attempt", got)
	}
	if lj := leaseNow(t, q2, "w1", time.Minute); lj.ID != st.ID || lj.Attempts != 2 {
		t.Fatalf("lease after restore = %+v, want attempt 2 of %s", lj, st.ID)
	}
}

// TestRestoreFinalAttemptCrashLoopBound: a job that was running its last
// attempt when the process died fails on restore instead of re-running —
// otherwise a job that crashes the coordinator would retry forever, one
// restart at a time.
func TestRestoreFinalAttemptCrashLoopBound(t *testing.T) {
	dir := t.TempDir()
	opts := walOptions(t, dir)
	opts.MaxAttempts = 1
	q := NewQueue(opts)
	st, err := q.Submit(Spec{Kind: "t"})
	if err != nil {
		t.Fatal(err)
	}
	leaseNow(t, q, "w1", time.Minute)

	q2, _, requeued, terminal := reopen(t, dir, decodePayload)
	if requeued != 0 || terminal != 1 {
		t.Fatalf("restore = %d requeued, %d terminal; want 0, 1", requeued, terminal)
	}
	got, _ := q2.Get(st.ID)
	if got.State != StateFailed || !strings.Contains(got.Error, "process restarted during final attempt") {
		t.Fatalf("job = %+v, want failed crash-loop bound", got)
	}
}

// TestRestoreUndecodablePayloadFails: a payload that no longer decodes
// (schema drift across a deploy) fails its job rather than poisoning the
// workers with a nil payload.
func TestRestoreUndecodablePayloadFails(t *testing.T) {
	dir := t.TempDir()
	q := NewQueue(walOptions(t, dir))
	st, err := q.Submit(Spec{Kind: "t", Payload: map[string]any{"v": float64(1)}})
	if err != nil {
		t.Fatal(err)
	}
	q2, _, requeued, terminal := reopen(t, dir, func(string, json.RawMessage) (any, error) {
		return nil, fmt.Errorf("schema moved on")
	})
	if requeued != 0 || terminal != 1 {
		t.Fatalf("restore = %d requeued, %d terminal; want 0, 1", requeued, terminal)
	}
	got, _ := q2.Get(st.ID)
	if got.State != StateFailed || !strings.Contains(got.Error, "payload decode failed") {
		t.Fatalf("job = %+v, want decode failure", got)
	}
}

// TestSubmitRefusedWhenWALFails: the WAL is the accept boundary, so a
// submission whose record the log does not take is refused and leaves no
// trace: no job in the table, no count, no tenant quota used, no journal
// event, no job ID spent, and nothing for a restart to replay.
func TestSubmitRefusedWhenWALFails(t *testing.T) {
	rec := obs.New(obs.Options{EventCapacity: 64})
	prev := obs.Global()
	obs.SetGlobal(rec)
	t.Cleanup(func() { obs.SetGlobal(prev) })
	dir := t.TempDir()
	opts := walOptions(t, dir)
	opts.TenantQuota = 1
	q := NewQueue(opts)
	if err := opts.WAL.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := q.Submit(Spec{Kind: "t", Tenant: "acme", Payload: map[string]any{"v": float64(1)}})
	if err == nil {
		t.Fatalf("submit over a closed WAL was acknowledged as %s", st.ID)
	}
	if jobs := q.List(); len(jobs) != 0 {
		t.Fatalf("refused submit left jobs %+v", jobs)
	}
	if queued, running := q.Depth(); queued != 0 || running != 0 {
		t.Fatalf("depth after a refused submit = (%d, %d)", queued, running)
	}
	if stats := q.StatsByKind(); len(stats) != 0 {
		t.Fatalf("refused submit counted in %+v", stats)
	}
	if q.tenantActive["acme"] != 0 || q.seq != 0 {
		t.Fatalf("refused submit used quota %d, job seq %d", q.tenantActive["acme"], q.seq)
	}
	snap := rec.Registry().Snapshot()
	if got := snap.Counters[obs.LabelKey(MetricJobsTotal, "state", "submitted")]; got != 0 {
		t.Fatalf("submitted counter = %d, want 0", got)
	}
	if got := snap.Counters[obs.LabelKey(MetricTenantJobs, "tenant", "acme")]; got != 0 {
		t.Fatalf("tenant counter = %d, want 0", got)
	}
	events, _ := rec.Events().Since(0, 100)
	for _, ev := range events {
		if ev.Type == obs.EventJobSubmitted {
			t.Fatalf("refused submit journaled %+v", ev)
		}
	}

	q2, rep, requeued, terminal := reopen(t, dir, decodePayload)
	if len(rep.Jobs) != 0 || requeued != 0 || terminal != 0 {
		t.Fatalf("restart replayed %d jobs (%d requeued, %d terminal), want none", len(rep.Jobs), requeued, terminal)
	}
	next, err := q2.Submit(Spec{Kind: "t", Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	if next.ID != "job-000001" {
		t.Fatalf("first accepted job after the refusal = %s, want job-000001", next.ID)
	}
}
