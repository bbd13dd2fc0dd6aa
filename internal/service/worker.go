package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"reveal/internal/jobs"
	"reveal/internal/obs"
)

// Coordinator is the lease protocol a FabricWorker executes jobs through,
// and the template registry its Runner resolves templates through. *Client
// speaks it over HTTP to a remote coordinator; *Server implements it in
// process with the code behind its fabric endpoints. On both transports a
// lost lease matches jobs.ErrLeaseLost or jobs.ErrUnknownJob with
// errors.Is.
type Coordinator interface {
	// LeaseJob leases one job, long-polling up to wait; a nil job means
	// none became eligible in time.
	LeaseJob(ctx context.Context, worker string, ttl, wait time.Duration) (*jobs.LeasedJob, error)
	// RenewJobLease heartbeats a held lease and returns its new expiry.
	RenewJobLease(ctx context.Context, id, worker, token string, ttl time.Duration) (time.Time, error)
	// CompleteJob reports a leased attempt's outcome (errMsg empty =
	// success) and returns the job's resulting status.
	CompleteJob(ctx context.Context, id, worker, token string, result any, errMsg string) (jobs.Status, error)

	// TemplateGet fetches a serialized classifier from the registry
	// (ok=false when it holds none for key).
	TemplateGet(ctx context.Context, key string) (blob []byte, ok bool, err error)
	// TemplateClaim asks for the right to train key: train=true means the
	// caller profiles and uploads; otherwise it polls TemplateGet again
	// after retryAfter.
	TemplateClaim(ctx context.Context, key, worker string) (train bool, retryAfter time.Duration, err error)
	// TemplatePut stores a serialized classifier and releases the claim on
	// key. It refuses bytes core.ReadClassifier refuses.
	TemplatePut(ctx context.Context, key string, blob []byte) error
	// TemplateRelease abandons a training claim so another worker can
	// take it.
	TemplateRelease(ctx context.Context, key, worker string) error
}

// Worker metric names (global obs registry), exported by every process
// that executes jobs.
const (
	MetricWorkersTotal = "reveal_workers_total" // execution slots
	MetricWorkersBusy  = "reveal_workers_busy"  // slots running an attempt
)

// FabricWorker is the service's job executor: it leases jobs from a
// Coordinator, executes them through the shared Runner, heartbeats the
// lease while running, and reports the outcome back. A worker node drives
// a remote coordinator over HTTP; a coordinator with in-process slots
// (reveald -role all) drives its own Server directly. A worker that dies
// mid-job simply stops heartbeating — the coordinator's reaper expires the
// lease and requeues the job elsewhere.
type FabricWorker struct {
	// ID names this worker in leases and events (required, unique per node).
	ID string
	// Client is the coordinator (required). A *Client should have
	// RetryAttempts set so a coordinator restart is ridden out instead of
	// killing the loop.
	Client Coordinator
	// Runner executes the leased campaigns (required). A template its
	// Cache misses resolves through Client's registry, so each template
	// is trained once across the fleet.
	Runner *Runner
	// Slots is how many jobs run concurrently (minimum 1).
	Slots int
	// LeaseTTL is the lease duration requested per job (0 → the
	// coordinator's default). Heartbeats renew at a third of it.
	LeaseTTL time.Duration
	// PollWait is the server-side long-poll duration per idle lease request
	// (default 10 s).
	PollWait time.Duration

	mu   sync.Mutex
	busy int
	// The Run/Shutdown handshake: Shutdown sets stopped and drives the
	// running Run through stop (end leasing), kill (cancel attempts) and
	// done (closed once Run has returned).
	stopped bool
	stop    context.CancelFunc
	kill    context.CancelFunc
	done    chan struct{}
}

func (w *FabricWorker) slots() int {
	return max(w.Slots, 1)
}

// Run leases and executes jobs until Shutdown drains the worker (it then
// returns nil) or ctx is canceled — a hard stop that also cancels the
// running attempts, whose failures are still reported (it then returns
// ctx.Err()). Call it once.
func (w *FabricWorker) Run(ctx context.Context) error {
	attemptCtx, kill := context.WithCancel(ctx)
	defer kill()
	leaseCtx, stop := context.WithCancel(attemptCtx)
	defer stop()
	done := make(chan struct{})
	defer close(done)
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		return ctx.Err()
	}
	w.stop, w.kill, w.done = stop, kill, done
	w.mu.Unlock()

	slots := w.slots()
	obs.Global().Registry().Gauge(MetricWorkersTotal).Set(float64(slots))
	obs.Log().Info("fabric worker starting", "id", w.ID, "slots", slots)
	var wg sync.WaitGroup
	for i := 0; i < slots; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.slotLoop(leaseCtx, attemptCtx)
		}()
	}
	wg.Wait()
	obs.Log().Info("fabric worker stopped", "id", w.ID)
	return ctx.Err()
}

// Shutdown drains the worker: it stops leasing, lets the running attempts
// finish until ctx expires, then cancels them and waits for Run to return.
// It returns nil on a clean drain and the ctx error when the hard stop was
// needed. A Run that has not started yet returns at once. Stopping aborts
// a lease request in flight; a lease the coordinator granted to it is
// requeued when it expires, as for a worker that died.
func (w *FabricWorker) Shutdown(ctx context.Context) error {
	w.mu.Lock()
	w.stopped = true
	stop, kill, done := w.stop, w.kill, w.done
	w.mu.Unlock()
	if done == nil {
		return nil
	}
	stop()
	select {
	case <-done:
		obs.Log().Info("fabric worker drained", "id", w.ID)
		return nil
	case <-ctx.Done():
	}
	obs.Log().Warn("fabric worker drain timed out, canceling running attempts", "id", w.ID)
	kill()
	<-done
	return fmt.Errorf("service: worker %s drain timed out: %w", w.ID, ctx.Err())
}

// Stats returns the slot count and how many slots are running an attempt
// (for /api/v1/stats and the top dashboard).
func (w *FabricWorker) Stats() (workers, busy int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.slots(), w.busy
}

func (w *FabricWorker) setBusy(delta int) {
	w.mu.Lock()
	w.busy += delta
	busy := w.busy
	w.mu.Unlock()
	obs.Global().Registry().Gauge(MetricWorkersBusy).Set(float64(busy))
}

// slotLoop leases under leaseCtx and runs each attempt under attemptCtx,
// so a drain stops the leasing without touching the running attempt.
func (w *FabricWorker) slotLoop(leaseCtx, attemptCtx context.Context) {
	wait := w.PollWait
	if wait <= 0 {
		wait = 10 * time.Second
	}
	idleBackoff := time.Second
	for leaseCtx.Err() == nil {
		lj, err := w.Client.LeaseJob(leaseCtx, w.ID, w.LeaseTTL, wait)
		if err != nil {
			if leaseCtx.Err() != nil {
				return
			}
			// Coordinator down or restarting: back off and keep trying; the
			// client's own retry already absorbed short blips.
			obs.Log().Warn("lease request failed", "worker", w.ID, "error", err)
			select {
			case <-leaseCtx.Done():
				return
			case <-time.After(idleBackoff):
			}
			if idleBackoff < 30*time.Second {
				idleBackoff *= 2
			}
			continue
		}
		idleBackoff = time.Second
		if lj == nil {
			continue // long-poll expired with nothing eligible
		}
		w.execute(attemptCtx, lj)
	}
}

// execute runs one leased job attempt end to end.
func (w *FabricWorker) execute(ctx context.Context, lj *jobs.LeasedJob) {
	w.setBusy(1)
	defer w.setBusy(-1)
	payload, err := DecodeCampaignPayload(lj.Kind, lj.Payload)
	if err != nil {
		w.complete(lj, nil, fmt.Sprintf("worker %s: %v", w.ID, err))
		return
	}
	// The runner's view of the job, rebuilt from the lease.
	job := &jobs.Job{
		ID:       lj.ID,
		Kind:     lj.Kind,
		TraceID:  lj.TraceID,
		Tenant:   lj.Tenant,
		Payload:  payload,
		Attempts: lj.Attempts,
	}
	if lj.TraceID != "" {
		// The lease carries the request's trace identity across the queue
		// boundary: every span, log line, and coefficient event the attempt
		// produces is stamped with the trace ID the HTTP client saw in its
		// response header.
		ctx = obs.WithTraceContext(ctx, obs.TraceContext{TraceID: lj.TraceID})
		obs.FlowEvent(lj.TraceID, obs.FlowStep, "attempt", map[string]any{
			"job_id": lj.ID, "attempt": lj.Attempts, "worker": w.ID,
		})
	}
	actx, cancel := context.WithCancel(ctx)
	if !lj.Deadline.IsZero() {
		var dcancel context.CancelFunc
		actx, dcancel = context.WithDeadline(actx, lj.Deadline)
		defer dcancel()
	}
	defer cancel()
	lost := w.heartbeat(actx, cancel, lj)
	sp := obs.StartSpanCtx(actx, "job")
	sp.AddItems(1)
	result, runErr := w.run(actx, job)
	sp.End()
	if lost.Load() {
		// The lease expired or the job was canceled while we ran: the
		// coordinator already requeued or finalized it, and a completion
		// with a stale token would be rejected anyway. Drop the result —
		// duplicate-completion idempotence is the coordinator's contract.
		obs.Log().Warn("lease lost mid-attempt, dropping result",
			"id", lj.ID, "worker", w.ID)
		return
	}
	errMsg := ""
	if runErr != nil {
		errMsg = runErr.Error()
	}
	w.complete(lj, result, errMsg)
}

// run executes one attempt; a runner panic becomes a failed attempt
// instead of taking the worker's process down.
func (w *FabricWorker) run(ctx context.Context, job *jobs.Job) (result any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("service: runner panicked: %v", r)
		}
	}()
	return w.Runner.Run(ctx, job, w.Client, w.ID)
}

// heartbeat renews the lease at a third of its TTL until the attempt ends.
// When the lease is lost — the queue revoked it in process, or a renewal
// answers jobs.ErrLeaseLost or jobs.ErrUnknownJob — it cancels the attempt
// and flags *lost.
func (w *FabricWorker) heartbeat(actx context.Context, cancel context.CancelFunc, lj *jobs.LeasedJob) *atomic.Bool {
	lost := new(atomic.Bool)
	ttl := w.LeaseTTL
	if ttl <= 0 {
		ttl = time.Until(lj.LeaseExpiry)
	}
	if ttl <= 0 {
		ttl = jobs.DefaultLeaseTTL
	}
	interval := ttl / 3
	if interval < 100*time.Millisecond {
		interval = 100 * time.Millisecond
	}
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-actx.Done():
				return
			case <-lj.Revoked: // nil over HTTP: never ready
				lost.Store(true)
				cancel()
				return
			case <-ticker.C:
			}
			_, err := w.Client.RenewJobLease(actx, lj.ID, w.ID, lj.Token, ttl)
			if err == nil {
				continue
			}
			if actx.Err() != nil {
				return
			}
			if errors.Is(err, jobs.ErrLeaseLost) || errors.Is(err, jobs.ErrUnknownJob) {
				// Lease lost for real: stop burning CPU on a void attempt.
				lost.Store(true)
				cancel()
				return
			}
			// Transient failure (coordinator restarting): keep running and
			// let the next tick retry — the job is lost only if the outage
			// outlives the lease TTL.
			obs.Log().Warn("lease renewal failed", "id", lj.ID, "worker", w.ID, "error", err)
		}
	}()
	return lost
}

// complete reports the outcome with a fresh context: the worker may be
// shutting down (ctx canceled) and the verdict should still reach the
// coordinator.
func (w *FabricWorker) complete(lj *jobs.LeasedJob, result any, errMsg string) {
	cctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := w.Client.CompleteJob(cctx, lj.ID, w.ID, lj.Token, result, errMsg)
	if err != nil {
		obs.Log().Warn("job completion not accepted", "id", lj.ID,
			"worker", w.ID, "error", err)
		return
	}
	obs.Log().Info("job completed via fabric", "id", lj.ID, "worker", w.ID,
		"state", string(st.State), "attempt", lj.Attempts, "error", errMsg)
}
