// Package jobs implements the campaign job queue of the reveald service
// and the lease protocol its workers execute jobs through: jobs move
// through the states queued → running → done/failed, and every attempt
// runs under a TTL lease that its holder heartbeats (Lease, RenewLease,
// CompleteLease). The queue provides per-job retry (exponential backoff
// plus deterministic jitter), absolute deadlines, cancellation of queued
// and leased jobs, requeueing of leases whose holder died, a drain mode
// that stops submissions, and an optional write-ahead log that survives a
// process crash. Queue depth and lease counts are exported as gauges on
// the global obs registry, so they appear on the existing /metrics
// endpoint. The executor that leases and runs jobs is
// internal/service.FabricWorker.
package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"reveal/internal/jobs/wal"
	"reveal/internal/obs"
	"reveal/internal/sampler"
)

// State is a job lifecycle state.
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Submission and lease rejections; match with errors.Is. The HTTP layer
// maps ErrQueueFull/ErrOverQuota to 429 + Retry-After (backpressure) and
// ErrLeaseLost to 409 (the caller's lease is stale).
var (
	ErrQueueFull = errors.New("queue full")
	ErrOverQuota = errors.New("tenant over quota")
	// ErrLeaseLost rejects a renewal or completion whose worker/token pair no
	// longer matches the job: the lease expired and the job was requeued (or
	// already finished), so the caller's attempt is void.
	ErrLeaseLost = errors.New("lease lost")
	// ErrUnknownJob names a job ID the queue has never seen.
	ErrUnknownJob = errors.New("unknown job")
)

// Queue metric names (global obs registry).
const (
	MetricQueueDepth      = "reveal_jobs_queue_depth"
	MetricJobsRunning     = "reveal_jobs_running"
	MetricJobsTotal       = "reveal_jobs_total"                    // labeled {state="submitted|done|failed|retried"}
	MetricQueueWait       = "reveal_jobs_queue_wait_seconds"       // labeled {kind=...}
	MetricAttemptDuration = "reveal_jobs_attempt_duration_seconds" // labeled {kind=...}
	MetricTenantJobs      = "reveal_tenant_jobs_total"             // labeled {tenant=...}
	MetricJobsLeased      = "reveal_jobs_leased"                   // gauge: leases currently held
	MetricLeaseExpired    = "reveal_jobs_lease_expired_total"
	MetricJobsRejected    = "reveal_jobs_rejected_total" // labeled {reason="queue_full|over_quota"}
)

// Label cardinality caps for the queue's metric vectors. Job kinds are a
// small fixed set; tenants are caller-controlled strings, so past the cap
// new tenants collapse onto the obs.OverflowLabel series.
const (
	maxKindLabels   = 16
	maxTenantLabels = 64
)

// Spec describes one job at submission time.
type Spec struct {
	// Kind tags the workload (the runner dispatches on it).
	Kind string
	// Payload is the opaque job input (e.g. a campaign spec).
	Payload any
	// MaxAttempts bounds execution attempts; 0 uses the queue default.
	MaxAttempts int
	// Timeout, when positive, sets the job deadline to submission time +
	// Timeout. The deadline is absolute: it covers queue wait, every
	// attempt, and every backoff pause.
	Timeout time.Duration
	// TraceID is the request trace identity minted (or adopted) by the HTTP
	// layer; the queue stamps it on every event, log line, and flow event
	// the job produces.
	TraceID string
	// Tenant attributes the job to a client identity for the per-tenant
	// counters ("" = untagged).
	Tenant string
}

// Job is one queued campaign. All fields are owned by the queue and must
// only be read through a Status snapshot; a worker executes an attempt
// from the LeasedJob handed out with its lease.
type Job struct {
	ID          string
	Kind        string
	TraceID     string
	Tenant      string
	Payload     any
	State       State
	Attempts    int
	MaxAttempts int
	SubmittedAt time.Time
	StartedAt   time.Time
	FinishedAt  time.Time
	// FirstClaimedAt marks the job's first lease; the gap from SubmittedAt
	// is the queue wait, the gap to FinishedAt is the run time (retries and
	// backoff included).
	FirstClaimedAt time.Time
	// NotBefore gates retried jobs until their backoff expires.
	NotBefore time.Time
	// Deadline, when non-zero, fails the job once passed (queued or
	// running; the worker bounds a running attempt's context by it).
	Deadline time.Time
	Error    string
	Result   any
	// LeaseWorker and LeaseExpiry are set while a worker holds the job's
	// lease (every running job is leased); the reaper requeues the job once
	// LeaseExpiry passes without a renewal.
	LeaseWorker string
	LeaseExpiry time.Time

	seq uint64
	// leaseToken authenticates renewals/completions for the current lease;
	// it rotates on every grant, so a worker whose lease expired (and whose
	// job was re-leased elsewhere) cannot complete the newer attempt.
	leaseToken string
	// revoked is closed when the current lease ends (LeasedJob.Revoked).
	revoked chan struct{}
	// payloadRaw is the serialized payload, populated at submit when a WAL
	// journals the queue (and lazily at first lease otherwise).
	payloadRaw json.RawMessage
}

// Status is the JSON-safe snapshot of a job served by the HTTP API.
type Status struct {
	ID          string     `json:"id"`
	Kind        string     `json:"kind"`
	TraceID     string     `json:"trace_id,omitempty"`
	Tenant      string     `json:"tenant,omitempty"`
	State       State      `json:"state"`
	Attempts    int        `json:"attempts"`
	MaxAttempts int        `json:"max_attempts"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	NotBefore   *time.Time `json:"not_before,omitempty"`
	Deadline    *time.Time `json:"deadline,omitempty"`
	// QueueWaitSeconds is submission → first lease (absent while queued).
	QueueWaitSeconds float64 `json:"queue_wait_seconds,omitempty"`
	// RunSeconds is first lease → finish, covering every attempt and
	// backoff pause; for a still-running job it is first lease → now.
	RunSeconds  float64    `json:"run_seconds,omitempty"`
	Error       string     `json:"error,omitempty"`
	Result      any        `json:"result,omitempty"`
	LeaseWorker string     `json:"lease_worker,omitempty"`
	LeaseExpiry *time.Time `json:"lease_expiry,omitempty"`
}

func optTime(t time.Time) *time.Time {
	if t.IsZero() {
		return nil
	}
	tt := t
	return &tt
}

// snapshot copies the job; the queue lock must be held.
func (j *Job) snapshot() Status {
	st := Status{
		ID:          j.ID,
		Kind:        j.Kind,
		TraceID:     j.TraceID,
		Tenant:      j.Tenant,
		State:       j.State,
		Attempts:    j.Attempts,
		MaxAttempts: j.MaxAttempts,
		SubmittedAt: j.SubmittedAt,
		StartedAt:   optTime(j.StartedAt),
		FinishedAt:  optTime(j.FinishedAt),
		NotBefore:   optTime(j.NotBefore),
		Deadline:    optTime(j.Deadline),
		Error:       j.Error,
		Result:      j.Result,
		LeaseWorker: j.LeaseWorker,
		LeaseExpiry: optTime(j.LeaseExpiry),
	}
	if !j.FirstClaimedAt.IsZero() {
		st.QueueWaitSeconds = j.FirstClaimedAt.Sub(j.SubmittedAt).Seconds()
		end := j.FinishedAt
		if end.IsZero() {
			end = time.Now()
		}
		st.RunSeconds = end.Sub(j.FirstClaimedAt).Seconds()
	}
	return st
}

// Options configures a Queue.
type Options struct {
	// MaxAttempts is the default attempt budget per job (minimum 1).
	MaxAttempts int
	// BackoffBase is the first retry delay; attempt k waits
	// BackoffBase·2^(k−1), scaled by jitter and capped at BackoffMax.
	BackoffBase time.Duration
	// BackoffMax caps the backoff delay.
	BackoffMax time.Duration
	// JitterSeed seeds the deterministic backoff jitter PRNG.
	JitterSeed uint64
	// Capacity bounds queued+running jobs; 0 means unbounded. Over-capacity
	// submissions fail with ErrQueueFull.
	Capacity int
	// TenantQuota bounds queued+running jobs per tenant (the empty tenant
	// included); 0 means unlimited. Over-quota submissions fail with
	// ErrOverQuota.
	TenantQuota int
	// WAL, when non-nil, journals every job lifecycle transition so the
	// queue survives a process crash: call Restore right after NewQueue to
	// replay it, and SnapshotWAL periodically to bound replay time.
	WAL *wal.Log
}

// DefaultOptions returns the daemon defaults: 3 attempts, 500 ms base
// backoff capped at 30 s.
func DefaultOptions() Options {
	return Options{MaxAttempts: 3, BackoffBase: 500 * time.Millisecond, BackoffMax: 30 * time.Second}
}

// KindStats aggregates per-workload-kind throughput for /api/v1/stats and
// the revealctl top dashboard.
type KindStats struct {
	Kind      string `json:"kind"`
	Submitted int64  `json:"submitted"`
	Done      int64  `json:"done"`
	Failed    int64  `json:"failed"`
	Retried   int64  `json:"retried,omitempty"`
	Queued    int    `json:"queued,omitempty"`
	Running   int    `json:"running,omitempty"`
}

// queueMetrics is the queue's pre-bound metric family. Every series is
// resolved against the global registry once (at NewQueue / first label
// use) instead of re-rendering a fmt.Sprintf key per event, so the
// per-transition cost is a map read plus an atomic add. All fields are
// nil-safe when observability is disabled.
type queueMetrics struct {
	depth        *obs.Gauge
	running      *obs.Gauge
	leased       *obs.Gauge
	byState      *obs.CounterVec   // reveal_jobs_total{state=...}
	queueWait    *obs.HistogramVec // reveal_jobs_queue_wait_seconds{kind=...}
	attemptDur   *obs.HistogramVec // reveal_jobs_attempt_duration_seconds{kind=...}
	tenantJobs   *obs.CounterVec   // reveal_tenant_jobs_total{tenant=...}
	rejected     *obs.CounterVec   // reveal_jobs_rejected_total{reason=...}
	leaseExpired *obs.Counter
}

func newQueueMetrics() queueMetrics {
	reg := obs.Global().Registry()
	return queueMetrics{
		depth:        reg.Gauge(MetricQueueDepth),
		running:      reg.Gauge(MetricJobsRunning),
		leased:       reg.Gauge(MetricJobsLeased),
		byState:      reg.CounterVec(MetricJobsTotal, "state", 8),
		queueWait:    reg.HistogramVec(MetricQueueWait, "kind", maxKindLabels),
		attemptDur:   reg.HistogramVec(MetricAttemptDuration, "kind", maxKindLabels),
		tenantJobs:   reg.CounterVec(MetricTenantJobs, "tenant", maxTenantLabels),
		rejected:     reg.CounterVec(MetricJobsRejected, "reason", 4),
		leaseExpired: reg.Counter(MetricLeaseExpired),
	}
}

// Queue is the in-memory job queue. Safe for concurrent use.
type Queue struct {
	mu      sync.Mutex
	opts    Options
	jobs    map[string]*Job
	byAge   []*Job // submission order (seq ascending), terminal jobs included
	byKind  map[string]*KindStats
	seq     uint64
	accept  bool
	wake    chan struct{}
	jitter  sampler.PRNG
	queued  int
	running int // every running job is leased
	// tenantActive counts queued+running jobs per tenant for TenantQuota.
	tenantActive map[string]int
	metrics      queueMetrics
}

// NewQueue builds an empty queue. The queue's metrics bind to the global
// obs recorder installed at call time, so install the recorder first.
func NewQueue(opts Options) *Queue {
	if opts.MaxAttempts < 1 {
		opts.MaxAttempts = 1
	}
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = 500 * time.Millisecond
	}
	if opts.BackoffMax < opts.BackoffBase {
		opts.BackoffMax = 30 * time.Second
	}
	return &Queue{
		opts:         opts,
		jobs:         map[string]*Job{},
		byKind:       map[string]*KindStats{},
		accept:       true,
		wake:         make(chan struct{}),
		jitter:       sampler.NewXoshiro256(opts.JitterSeed ^ 0x9042),
		tenantActive: map[string]int{},
		metrics:      newQueueMetrics(),
	}
}

// broadcast wakes every waiting lease long-poll; q.mu must be held.
func (q *Queue) broadcast() {
	close(q.wake)
	q.wake = make(chan struct{})
}

func (q *Queue) gauges() {
	q.metrics.depth.Set(float64(q.queued))
	q.metrics.running.Set(float64(q.running))
	q.metrics.leased.Set(float64(q.running))
}

// kindLocked returns the per-kind aggregate, creating it on first use;
// q.mu must be held.
func (q *Queue) kindLocked(kind string) *KindStats {
	ks := q.byKind[kind]
	if ks == nil {
		ks = &KindStats{Kind: kind}
		q.byKind[kind] = ks
	}
	return ks
}

// StatsByKind returns the per-kind throughput aggregates sorted by kind.
func (q *Queue) StatsByKind() []KindStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.reapLocked(time.Now())
	out := make([]KindStats, 0, len(q.byKind))
	for _, ks := range q.byKind {
		out = append(out, *ks)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Kind < out[b].Kind })
	return out
}

// event stamps the job's identity onto a service-journal event and emits
// it on the global recorder (no-op when events are disabled).
func (j *Job) event(typ string, detail string) {
	obs.Emit(obs.ServiceEvent{
		Type:    typ,
		JobID:   j.ID,
		TraceID: j.TraceID,
		Kind:    j.Kind,
		Tenant:  j.Tenant,
		State:   string(j.State),
		Attempt: j.Attempts,
		Detail:  detail,
	})
}

// Submit enqueues a job and returns its snapshot. When the queue is over
// capacity (ErrQueueFull) or the tenant over quota (ErrOverQuota) the
// submission is rejected without side effects beyond the rejection counter;
// when the WAL does not take its submit record, without any.
func (q *Queue) Submit(spec Spec) (Status, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.accept {
		return Status{}, fmt.Errorf("jobs: queue is shutting down")
	}
	if q.opts.Capacity > 0 && q.queued+q.running >= q.opts.Capacity {
		q.metrics.rejected.With("queue_full").Inc()
		return Status{}, fmt.Errorf("jobs: %w (%d jobs)", ErrQueueFull, q.opts.Capacity)
	}
	if q.opts.TenantQuota > 0 && q.tenantActive[spec.Tenant] >= q.opts.TenantQuota {
		q.metrics.rejected.With("over_quota").Inc()
		return Status{}, fmt.Errorf("jobs: %w: tenant %q has %d active jobs (quota %d)",
			ErrOverQuota, spec.Tenant, q.tenantActive[spec.Tenant], q.opts.TenantQuota)
	}
	// Serialize the payload before committing the submit: the WAL's accept
	// boundary promises a 202 response survives a crash, which requires the
	// payload to be journalable.
	var payloadRaw json.RawMessage
	if q.opts.WAL != nil && spec.Payload != nil {
		raw, err := json.Marshal(spec.Payload)
		if err != nil {
			return Status{}, fmt.Errorf("jobs: payload not journalable: %w", err)
		}
		payloadRaw = raw
	}
	q.seq++
	maxAttempts := spec.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = q.opts.MaxAttempts
	}
	now := time.Now()
	j := &Job{
		ID:          fmt.Sprintf("job-%06d", q.seq),
		Kind:        spec.Kind,
		TraceID:     spec.TraceID,
		Tenant:      spec.Tenant,
		Payload:     spec.Payload,
		State:       StateQueued,
		MaxAttempts: maxAttempts,
		SubmittedAt: now,
		seq:         q.seq,
	}
	j.payloadRaw = payloadRaw
	if spec.Timeout > 0 {
		j.Deadline = now.Add(spec.Timeout)
	}
	if err := q.journalLocked(wal.RecSubmit, j); err != nil {
		q.seq--
		return Status{}, fmt.Errorf("jobs: journaling %s: %w", j.ID, err)
	}
	q.jobs[j.ID] = j
	q.byAge = append(q.byAge, j)
	q.queued++
	q.tenantActive[j.Tenant]++
	ks := q.kindLocked(j.Kind)
	ks.Submitted++
	ks.Queued++
	q.metrics.byState.With("submitted").Inc()
	if j.Tenant != "" {
		q.metrics.tenantJobs.With(j.Tenant).Inc()
	}
	q.gauges()
	j.event(obs.EventJobSubmitted, "")
	obs.Log().Info("job submitted", "id", j.ID, "kind", j.Kind,
		"trace_id", j.TraceID, "tenant", j.Tenant,
		"max_attempts", j.MaxAttempts, "queue_depth", q.queued)
	q.broadcast()
	return j.snapshot(), nil
}

// reapLocked fails queued jobs whose deadline has passed and reclaims
// expired leases (the holder stopped heartbeating: the job requeues with
// the usual retry backoff, or fails when its deadline or attempt budget is
// spent). It runs on every queue observation (Lease included), so expiry
// does not depend on an idle worker scanning the queue; q.mu must be
// held.
func (q *Queue) reapLocked(now time.Time) {
	for _, j := range q.byAge {
		switch {
		case j.State == StateQueued && !j.Deadline.IsZero() && now.After(j.Deadline):
			q.finalizeLocked(j, StateFailed, "deadline exceeded while queued")
		case j.State == StateRunning && j.LeaseWorker != "" && now.After(j.LeaseExpiry):
			q.expireLeaseLocked(j, now)
		}
	}
}

// Get returns a job snapshot.
func (q *Queue) Get(id string) (Status, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.reapLocked(time.Now())
	j, ok := q.jobs[id]
	if !ok {
		return Status{}, false
	}
	return j.snapshot(), true
}

// Kind returns a job's workload kind ("" for unknown IDs) — used by the
// fabric completion handler to decode results before taking the verdict.
func (q *Queue) Kind(id string) string {
	q.mu.Lock()
	defer q.mu.Unlock()
	if j, ok := q.jobs[id]; ok {
		return j.Kind
	}
	return ""
}

// Leased returns how many jobs are currently held under leases: every
// running job.
func (q *Queue) Leased() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.reapLocked(time.Now())
	return q.running
}

// List returns every job in submission order.
func (q *Queue) List() []Status {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.reapLocked(time.Now())
	out := make([]Status, 0, len(q.byAge))
	for _, j := range q.byAge {
		out = append(out, j.snapshot())
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Depth returns (queued, running) counts.
func (q *Queue) Depth() (queued, running int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.reapLocked(time.Now())
	return q.queued, q.running
}

// Cancel aborts a job: a queued or running job fails at once as
// "canceled". A running job's lease is revoked with it: an in-process
// holder learns through LeasedJob.Revoked, a remote one at its next
// renewal, and the holder's late completion is rejected. Canceling a
// finished job is a no-op.
func (q *Queue) Cancel(id string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return fmt.Errorf("jobs: %w: %s", ErrUnknownJob, id)
	}
	if j.State == StateQueued || j.State == StateRunning {
		q.finalizeLocked(j, StateFailed, "canceled")
	}
	return nil
}

// StopAccepting rejects further submissions (drain mode). Leases, renewals
// and completions keep working, so held attempts can finish.
func (q *Queue) StopAccepting() {
	q.mu.Lock()
	q.accept = false
	q.broadcast()
	q.mu.Unlock()
}

// nextQueuedLocked scans for the oldest eligible queued job. When none is
// eligible it returns the wait until the next backoff gate expires (0 when
// nothing is pending at all); q.mu must be held.
func (q *Queue) nextQueuedLocked(now time.Time) (*Job, time.Duration) {
	var next time.Time
	var best *Job
	for _, cand := range q.byAge {
		if cand.State != StateQueued {
			continue
		}
		if cand.NotBefore.After(now) {
			if next.IsZero() || cand.NotBefore.Before(next) {
				next = cand.NotBefore
			}
			continue
		}
		if best == nil || cand.seq < best.seq {
			best = cand
		}
	}
	if best != nil {
		return best, 0
	}
	var wait time.Duration
	if !next.IsZero() {
		wait = time.Until(next)
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
	}
	return nil, wait
}

// finalizeLocked moves a job to a terminal state; q.mu must be held.
func (q *Queue) finalizeLocked(j *Job, state State, errMsg string) {
	ks := q.kindLocked(j.Kind)
	if j.State == StateQueued {
		q.queued--
		ks.Queued--
	} else if j.State == StateRunning {
		q.running--
		ks.Running--
	}
	if j.State != StateDone && j.State != StateFailed {
		q.tenantActive[j.Tenant]--
		if q.tenantActive[j.Tenant] <= 0 {
			delete(q.tenantActive, j.Tenant)
		}
	}
	if j.LeaseWorker != "" {
		q.releaseLeaseLocked(j)
	}
	j.State = state
	j.Error = errMsg
	j.FinishedAt = time.Now()
	j.NotBefore = time.Time{}
	if state == StateDone {
		ks.Done++
		q.metrics.byState.With("done").Inc()
	} else {
		ks.Failed++
		q.metrics.byState.With("failed").Inc()
	}
	q.gauges()
	q.journalLocked(wal.RecFinish, j)
	j.event(obs.EventJobFinished, errMsg)
	if j.TraceID != "" {
		obs.FlowEvent(j.TraceID, obs.FlowEnd, "finished", map[string]any{
			"job_id": j.ID, "state": string(state), "attempts": j.Attempts,
		})
	}
	obs.Log().Info("job finished", "id", j.ID, "state", string(state),
		"trace_id", j.TraceID, "attempts", j.Attempts, "error", errMsg)
	q.broadcast()
}

// backoffLocked computes the jittered exponential backoff for the given
// attempt number (1-based); q.mu must be held (the jitter PRNG is shared).
func (q *Queue) backoffLocked(attempt int) time.Duration {
	d := q.opts.BackoffBase
	for i := 1; i < attempt && d < q.opts.BackoffMax; i++ {
		d *= 2
	}
	if d > q.opts.BackoffMax {
		d = q.opts.BackoffMax
	}
	// Jitter in [0.5, 1.5): desynchronizes retry herds while keeping the
	// exponential envelope.
	return time.Duration(float64(d) * (0.5 + sampler.Float64(q.jitter)))
}

// retryLocked requeues a running job for its next attempt with jittered
// exponential backoff (the caller has checked the attempt budget); q.mu
// must be held.
func (q *Queue) retryLocked(j *Job, now time.Time, errMsg string) {
	backoff := q.backoffLocked(j.Attempts)
	j.State = StateQueued
	j.NotBefore = now.Add(backoff)
	j.Error = errMsg
	q.running--
	q.queued++
	ks := q.kindLocked(j.Kind)
	ks.Running--
	ks.Queued++
	ks.Retried++
	q.metrics.byState.With("retried").Inc()
	q.gauges()
	q.journalLocked(wal.RecRetry, j)
	j.event(obs.EventJobRetried, errMsg)
	obs.Log().Warn("job attempt failed, retrying", "id", j.ID,
		"trace_id", j.TraceID, "attempt", j.Attempts,
		"max_attempts", j.MaxAttempts, "backoff", backoff, "error", errMsg)
	q.broadcast()
}
