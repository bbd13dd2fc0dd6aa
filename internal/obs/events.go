package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Service-journal metric names.
const (
	MetricServiceEvents        = "reveal_service_events_total"
	MetricServiceEventsDropped = "reveal_service_events_dropped_total"
)

// Well-known service event types. The set is open — emitters may add new
// types without touching this file — but the core job lifecycle uses these.
const (
	EventJobSubmitted = "job_submitted"
	EventJobRetried   = "job_retried"
	EventJobFinished  = "job_finished"
	// EventJobLeased marks a worker taking a lease on a job: the start of
	// every attempt, in process or over the fabric API.
	EventJobLeased = "job_leased"
	// EventLeaseExpired marks a lease whose holder stopped heartbeating; the
	// job is requeued (or failed when out of attempts).
	EventLeaseExpired = "lease_expired"
	// EventJobExpired marks a job whose absolute deadline passed while its
	// lease was held by a dead worker; Detail names the lease holder.
	EventJobExpired = "job_expired"
	// EventWALRestore summarizes a queue restore from the write-ahead log
	// at startup (requeued/terminal counts, replay horizon).
	EventWALRestore   = "wal_restore"
	EventCacheFill    = "cache_fill"
	EventDrainStarted = "drain_started"
	EventDrainDone    = "drain_done"
	// EventQualityDrift is emitted by the history drift watchdog when a
	// gated quality metric's rolling mean crosses its tolerance against
	// the pinned baseline.
	EventQualityDrift = "quality_drift"
)

// ServiceEvent is one record in the append-only service journal
// (events.jsonl and the /events endpoint): a job lifecycle transition, a
// template-cache fill, a drain, … Every field except Seq/Time/Type is
// optional.
type ServiceEvent struct {
	// Seq is the journal sequence number, assigned by Append. Consumers
	// long-poll /events with ?since=<seq> to resume where they left off.
	Seq int64 `json:"seq"`
	// Time is the event timestamp, assigned by Append.
	Time time.Time `json:"time"`
	// Type is the event kind (see the Event* constants).
	Type string `json:"type"`
	// JobID, TraceID, Kind, and Tenant attribute the event to the job,
	// request, workload, and tenant that produced it.
	JobID   string `json:"job_id,omitempty"`
	TraceID string `json:"trace_id,omitempty"`
	Kind    string `json:"kind,omitempty"`
	Tenant  string `json:"tenant,omitempty"`
	// State is the resulting job state for lifecycle events.
	State string `json:"state,omitempty"`
	// Attempt is the 1-based attempt number for claim/retry/finish events.
	Attempt int `json:"attempt,omitempty"`
	// Detail carries a free-form human-readable annotation (error text,
	// cache key, drain reason).
	Detail string `json:"detail,omitempty"`
}

// EventLog is a bounded ring buffer of service events with monotonically
// increasing sequence numbers, a long-poll wait primitive, and an optional
// asynchronous JSONL sink. Producers never block: once the ring is full the
// oldest events are overwritten, and a slow sink drops (and counts) rather
// than stalls. Safe for concurrent use; a nil *EventLog ignores everything.
type EventLog struct {
	mu   sync.Mutex
	buf  []ServiceEvent // ring storage, len(buf) == capacity
	head int            // index of the oldest event
	n    int            // number of live events
	seq  int64          // last assigned sequence number
	wake chan struct{}  // closed+replaced on every Append (long-poll broadcast)

	reg *Registry // aggregate counters (may be nil)

	sinkCh      chan ServiceEvent
	sinkDone    chan struct{}
	sinkDropped atomic.Int64
	sinkOnce    sync.Once
}

// NewEventLog builds a ring holding at most capacity events (minimum 16).
// reg, when non-nil, receives the aggregate event counters.
func NewEventLog(capacity int, reg *Registry) *EventLog {
	if capacity < 16 {
		capacity = 16
	}
	return &EventLog{
		buf:  make([]ServiceEvent, capacity),
		wake: make(chan struct{}),
		reg:  reg,
	}
}

// Append stamps ev with the next sequence number and the current time,
// stores it in the ring (overwriting the oldest event when full), forwards
// it to the sink, and wakes long-pollers. It never blocks on consumers.
func (l *EventLog) Append(ev ServiceEvent) ServiceEvent {
	if l == nil {
		return ev
	}
	l.mu.Lock()
	l.seq++
	ev.Seq = l.seq
	if ev.Time.IsZero() {
		ev.Time = time.Now().UTC()
	}
	if l.n < len(l.buf) {
		l.buf[(l.head+l.n)%len(l.buf)] = ev
		l.n++
	} else {
		l.buf[l.head] = ev
		l.head = (l.head + 1) % len(l.buf)
	}
	wake := l.wake
	l.wake = make(chan struct{})
	sink := l.sinkCh
	l.mu.Unlock()
	close(wake)

	l.reg.Counter(MetricServiceEvents).Inc()
	if sink != nil {
		select {
		case sink <- ev:
		default:
			// The sink writer is behind; dropping beats blocking the queue.
			l.sinkDropped.Add(1)
			l.reg.Counter(MetricServiceEventsDropped).Inc()
		}
	}
	return ev
}

// Since returns up to max events with Seq > after (oldest first) plus the
// sequence number to resume from. When the requested range has been
// overwritten, the oldest retained events are returned — consumers detect
// the gap from the jump in Seq.
func (l *EventLog) Since(after int64, max int) (events []ServiceEvent, next int64) {
	if l == nil {
		return nil, after
	}
	if max <= 0 {
		max = 256
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	next = l.seq
	if next < after {
		// The caller's cursor is ahead of this log (e.g. the daemon
		// restarted); restart them from the current tail.
		after = next
	}
	for i := 0; i < l.n && len(events) < max; i++ {
		ev := l.buf[(l.head+i)%len(l.buf)]
		if ev.Seq > after {
			events = append(events, ev)
		}
	}
	if len(events) > 0 {
		next = events[len(events)-1].Seq
	} else {
		next = after
	}
	return events, next
}

// WaitSince is Since with a long-poll: when no event newer than after is
// buffered it blocks until one arrives or ctx is done, then returns
// whatever is available (possibly nothing on timeout).
func (l *EventLog) WaitSince(ctx context.Context, after int64, max int) ([]ServiceEvent, int64) {
	if l == nil {
		return nil, after
	}
	for {
		l.mu.Lock()
		wake := l.wake
		haveNewer := l.seq > after
		l.mu.Unlock()
		if haveNewer {
			return l.Since(after, max)
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return nil, after
		}
	}
}

// SinkDropped reports how many events the asynchronous sink dropped because
// its writer fell behind.
func (l *EventLog) SinkDropped() int64 {
	if l == nil {
		return 0
	}
	return l.sinkDropped.Load()
}

// AttachSink starts a background goroutine encoding every appended event as
// one JSON line to w (the service's events.jsonl). The writer is decoupled
// from producers by a bounded channel: when it falls behind, events are
// dropped and counted instead of backpressuring the job queue. Writes are
// buffered and flushed whenever the channel runs dry, so the file trails
// the journal only while a burst is in flight. Call CloseSink to flush,
// fsync, and stop. Only the first AttachSink takes effect.
func (l *EventLog) AttachSink(w io.Writer) {
	if l == nil || w == nil {
		return
	}
	l.sinkOnce.Do(func() {
		ch := make(chan ServiceEvent, 1024)
		done := make(chan struct{})
		l.mu.Lock()
		l.sinkCh = ch
		l.sinkDone = done
		l.mu.Unlock()
		go func() {
			defer close(done)
			bw := bufio.NewWriter(w)
			enc := json.NewEncoder(bw)
			// unflushed counts events encoded into the buffer since the
			// last successful flush: a failing flush loses exactly those.
			unflushed := 0
			drop := func(n int) {
				if n <= 0 {
					return
				}
				l.sinkDropped.Add(int64(n))
				l.reg.Counter(MetricServiceEventsDropped).Add(int64(n))
			}
			flush := func() {
				if unflushed == 0 {
					return
				}
				if err := bw.Flush(); err != nil {
					// A dead sink (disk full, closed file) must not wedge
					// the drain loop; count the loss and keep consuming.
					drop(unflushed)
				}
				unflushed = 0
			}
			for ev := range ch {
				if err := enc.Encode(ev); err != nil {
					drop(1)
				} else {
					unflushed++
				}
				if len(ch) == 0 {
					flush()
				}
			}
			// Shutdown: everything queued has been encoded — push it to
			// the file and force it to stable storage so the journal is
			// complete on disk even when the process exits right after a
			// SIGTERM drain.
			flush()
			if s, ok := w.(interface{ Sync() error }); ok {
				_ = s.Sync()
			}
		}()
	})
}

// CloseSink stops the sink goroutine after it has drained, flushed, and
// fsynced every queued event, and returns the total number of events the
// sink dropped over its lifetime (0 = the journal file is complete). Safe
// to call without an attached sink, and at most once.
func (l *EventLog) CloseSink() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	ch := l.sinkCh
	done := l.sinkDone
	l.sinkCh = nil
	l.mu.Unlock()
	if ch == nil {
		return l.sinkDropped.Load()
	}
	close(ch)
	<-done
	return l.sinkDropped.Load()
}

// Events returns the recorder's service event log (nil when disabled).
func (r *Recorder) Events() *EventLog {
	if r == nil {
		return nil
	}
	return r.serviceEvents
}

// Emit appends a service event to the recorder's event log. Nil-safe: with
// observability disabled (or the event log not configured) it is a no-op.
func (r *Recorder) Emit(ev ServiceEvent) {
	if r == nil {
		return
	}
	r.serviceEvents.Append(ev)
}

// Emit appends a service event on the global recorder.
func Emit(ev ServiceEvent) { Global().Emit(ev) }
