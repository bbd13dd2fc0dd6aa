package jobs

import (
	"encoding/json"
	"fmt"
	"time"

	"reveal/internal/jobs/wal"
	"reveal/internal/obs"
)

// DefaultLeaseTTL is the lease duration used when a worker does not ask
// for one. Workers renew at a fraction of the TTL, so the value trades
// failure-detection latency against heartbeat traffic.
const DefaultLeaseTTL = 15 * time.Second

// LeasedJob is the coordinator→worker handoff for one leased job: enough
// to execute the attempt and to authenticate its renewals and completion.
// The payload crosses the wire serialized; the worker decodes it by Kind.
type LeasedJob struct {
	ID          string          `json:"id"`
	Kind        string          `json:"kind"`
	TraceID     string          `json:"trace_id,omitempty"`
	Tenant      string          `json:"tenant,omitempty"`
	Attempts    int             `json:"attempts"`
	MaxAttempts int             `json:"max_attempts"`
	Token       string          `json:"token"`
	Payload     json.RawMessage `json:"payload,omitempty"`
	Deadline    time.Time       `json:"deadline"`
	LeaseExpiry time.Time       `json:"lease_expiry"`
	// Revoked is closed when the queue ends the lease: the job was
	// canceled, the lease expired, or the attempt was completed. It does
	// not cross the wire (nil on a lease decoded from HTTP); remote holders
	// learn of a revocation from their next renewal instead.
	Revoked <-chan struct{} `json:"-"`
}

// Lease hands the oldest eligible queued job to a worker under a TTL
// lease (ttl <= 0 uses DefaultLeaseTTL) and starts its next attempt. When
// no job is eligible it returns the wait until the next backoff gate
// expires (0 when nothing is pending at all) plus the wake channel to
// select on, so callers can long-poll.
func (q *Queue) Lease(worker string, ttl time.Duration) (lj *LeasedJob, wait time.Duration, wake <-chan struct{}, err error) {
	if worker == "" {
		return nil, 0, nil, fmt.Errorf("jobs: lease requires a worker id")
	}
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	now := time.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	q.reapLocked(now)
	j, wait := q.nextQueuedLocked(now)
	if j == nil {
		return nil, wait, q.wake, nil
	}
	// The payload must serialize to travel to the worker; without a WAL it
	// was not marshaled at submit, so do it now (once — the bytes are kept).
	if j.payloadRaw == nil && j.Payload != nil {
		raw, merr := json.Marshal(j.Payload)
		if merr != nil {
			q.finalizeLocked(j, StateFailed, fmt.Sprintf("payload not serializable for lease: %v", merr))
			return nil, 0, nil, fmt.Errorf("jobs: payload of %s not serializable: %w", j.ID, merr)
		}
		j.payloadRaw = raw
	}
	j.State = StateRunning
	j.Attempts++
	j.StartedAt = now
	if j.FirstClaimedAt.IsZero() {
		j.FirstClaimedAt = now
		q.metrics.queueWait.With(j.Kind).Observe(now.Sub(j.SubmittedAt).Seconds())
	}
	q.queued--
	q.running++
	ks := q.kindLocked(j.Kind)
	ks.Queued--
	ks.Running++
	j.LeaseWorker = worker
	j.LeaseExpiry = now.Add(ttl)
	j.leaseToken = fmt.Sprintf("lease-%016x", q.jitter.Uint64())
	j.revoked = make(chan struct{})
	q.gauges()
	q.journalLocked(wal.RecLease, j)
	j.event(obs.EventJobLeased, worker)
	obs.Log().Debug("job leased", "id", j.ID, "worker", worker,
		"attempt", j.Attempts, "ttl", ttl, "trace_id", j.TraceID)
	return &LeasedJob{
		ID:          j.ID,
		Kind:        j.Kind,
		TraceID:     j.TraceID,
		Tenant:      j.Tenant,
		Attempts:    j.Attempts,
		MaxAttempts: j.MaxAttempts,
		Token:       j.leaseToken,
		Payload:     j.payloadRaw,
		Deadline:    j.Deadline,
		LeaseExpiry: j.LeaseExpiry,
		Revoked:     j.revoked,
	}, 0, nil, nil
}

// leaseHolderLocked validates that (worker, token) still holds the lease
// on job id; q.mu must be held.
func (q *Queue) leaseHolderLocked(id, worker, token string) (*Job, error) {
	j, ok := q.jobs[id]
	if !ok {
		return nil, fmt.Errorf("jobs: %w: %s", ErrUnknownJob, id)
	}
	if j.State != StateRunning || j.LeaseWorker != worker || j.leaseToken != token || token == "" {
		return nil, fmt.Errorf("jobs: %w: %s is %s (lease %q)", ErrLeaseLost, id, j.State, j.LeaseWorker)
	}
	return j, nil
}

// RenewLease extends a held lease by ttl (<= 0 uses DefaultLeaseTTL) and
// returns the new expiry. A lease the queue has revoked (the job was
// canceled, or the lease expired) renews with ErrLeaseLost, so the worker
// aborts the attempt.
func (q *Queue) RenewLease(id, worker, token string, ttl time.Duration) (time.Time, error) {
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	now := time.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	q.reapLocked(now)
	j, err := q.leaseHolderLocked(id, worker, token)
	if err != nil {
		return time.Time{}, err
	}
	j.LeaseExpiry = now.Add(ttl)
	q.journalLocked(wal.RecLease, j)
	return j.LeaseExpiry, nil
}

// CompleteLease records the outcome of a leased attempt: success (errMsg
// empty), retryable failure (back to queued with backoff), or terminal
// failure (deadline passed or attempt budget spent). A completion whose
// lease was lost (expired and requeued, canceled, or finished elsewhere)
// is rejected with ErrLeaseLost, which makes duplicate completions
// idempotent: only the current lease holder's verdict counts.
func (q *Queue) CompleteLease(id, worker, token string, result any, errMsg string) (Status, error) {
	now := time.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	q.reapLocked(now)
	j, err := q.leaseHolderLocked(id, worker, token)
	if err != nil {
		return Status{}, err
	}
	if !j.StartedAt.IsZero() {
		q.metrics.attemptDur.With(j.Kind).Observe(now.Sub(j.StartedAt).Seconds())
	}
	// The attempt is over either way: release the lease before routing the
	// outcome so finalize/retry see an unleased running job.
	q.releaseLeaseLocked(j)
	switch {
	case errMsg == "":
		j.Result = result
		q.finalizeLocked(j, StateDone, "")
	case !j.Deadline.IsZero() && now.After(j.Deadline):
		q.finalizeLocked(j, StateFailed, fmt.Sprintf("deadline exceeded: %s", errMsg))
	case j.Attempts < j.MaxAttempts:
		q.retryLocked(j, now, errMsg)
	default:
		q.finalizeLocked(j, StateFailed, errMsg)
	}
	return j.snapshot(), nil
}

// releaseLeaseLocked ends j's current lease: its token stops
// authenticating and Revoked closes; q.mu must be held.
func (q *Queue) releaseLeaseLocked(j *Job) {
	j.LeaseWorker, j.leaseToken, j.LeaseExpiry = "", "", time.Time{}
	close(j.revoked)
	j.revoked = nil
}

// expireLeaseLocked reclaims a lease whose holder stopped heartbeating:
// the job requeues with the usual retry backoff, or fails when its
// deadline passed while leased (journaled as job_expired naming the dead
// holder) or its attempt budget is spent; q.mu must be held.
func (q *Queue) expireLeaseLocked(j *Job, now time.Time) {
	holder := j.LeaseWorker
	q.releaseLeaseLocked(j)
	q.metrics.leaseExpired.Inc()
	obs.Log().Warn("lease expired", "id", j.ID, "worker", holder,
		"attempt", j.Attempts, "trace_id", j.TraceID)
	switch {
	case !j.Deadline.IsZero() && now.After(j.Deadline):
		j.event(obs.EventJobExpired, "deadline exceeded while leased by "+holder)
		q.finalizeLocked(j, StateFailed, "deadline exceeded while leased by "+holder)
	case j.Attempts < j.MaxAttempts:
		j.event(obs.EventLeaseExpired, holder)
		q.retryLocked(j, now, "lease expired (worker "+holder+")")
	default:
		j.event(obs.EventLeaseExpired, holder)
		q.finalizeLocked(j, StateFailed, "lease expired on final attempt (worker "+holder+")")
	}
}
