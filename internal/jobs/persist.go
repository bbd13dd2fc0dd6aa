package jobs

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"reveal/internal/jobs/wal"
	"reveal/internal/obs"
)

// journalLocked appends one lifecycle record for j to the WAL (no-op
// without one). Submit records carry the full job image; the rest are
// deltas merged by ID during replay. A failure is logged and returned:
// Submit refuses a job whose submit record failed, while the other
// records are best effort, because a sick disk must not wedge the queue —
// losing one only re-runs a job after a crash; q.mu must be held.
func (q *Queue) journalLocked(typ wal.RecordType, j *Job) error {
	if q.opts.WAL == nil {
		return nil
	}
	_, err := q.opts.WAL.Append(wal.Record{Type: typ, Job: q.imageLocked(j, typ == wal.RecSubmit)})
	if err != nil {
		obs.Log().Error("wal append failed", "id", j.ID, "type", string(typ), "error", err)
	}
	return err
}

// imageLocked renders j as a WAL job image — full (identity + payload)
// for submit records and snapshots, delta otherwise; q.mu must be held.
func (q *Queue) imageLocked(j *Job, full bool) wal.JobImage {
	img := wal.JobImage{
		ID:          j.ID,
		State:       string(j.State),
		Attempts:    j.Attempts,
		NotBefore:   j.NotBefore,
		LeaseWorker: j.LeaseWorker,
		LeaseExpiry: j.LeaseExpiry,
		Error:       j.Error,
		FinishedAt:  j.FinishedAt,
	}
	if full {
		img.Kind = j.Kind
		img.TraceID = j.TraceID
		img.Tenant = j.Tenant
		img.Payload = j.payloadRaw
		img.MaxAttempts = j.MaxAttempts
		img.SubmittedAt = j.SubmittedAt
		img.Deadline = j.Deadline
	}
	if j.Result != nil {
		if raw, err := json.Marshal(j.Result); err == nil {
			img.Result = raw
		}
	}
	return img
}

// Restore loads a WAL replay into an empty queue: terminal jobs are kept
// for status queries, and every non-terminal job — queued, or running when
// the previous process died mid-attempt or mid-lease — is re-enqueued for
// another attempt (at-least-once execution). decode turns a journaled
// payload back into the runner's in-memory form by kind; a payload that no
// longer decodes fails its job rather than poisoning the workers. Call it
// after NewQueue and before the first Submit or worker start.
func (q *Queue) Restore(rep *wal.Replay, decode func(kind string, payload json.RawMessage) (any, error)) (requeued, terminal int) {
	if rep == nil {
		return 0, 0
	}
	now := time.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	if rep.JobSeq > q.seq {
		q.seq = rep.JobSeq
	}
	imgs := make([]wal.JobImage, len(rep.Jobs))
	copy(imgs, rep.Jobs)
	sort.Slice(imgs, func(a, b int) bool { return jobSeqOf(imgs[a].ID) < jobSeqOf(imgs[b].ID) })
	for _, img := range imgs {
		if img.ID == "" || q.jobs[img.ID] != nil {
			continue
		}
		seq := jobSeqOf(img.ID)
		if seq > q.seq {
			q.seq = seq
		}
		j := &Job{
			ID:          img.ID,
			Kind:        img.Kind,
			TraceID:     img.TraceID,
			Tenant:      img.Tenant,
			Attempts:    img.Attempts,
			MaxAttempts: img.MaxAttempts,
			SubmittedAt: img.SubmittedAt,
			Deadline:    img.Deadline,
			Error:       img.Error,
			seq:         seq,
			payloadRaw:  img.Payload,
		}
		if j.MaxAttempts < 1 {
			j.MaxAttempts = q.opts.MaxAttempts
		}
		ks := q.kindLocked(j.Kind)
		ks.Submitted++
		q.metrics.byState.With("restored").Inc()
		fail := func(msg string) {
			j.State = StateFailed
			j.Error = msg
			j.FinishedAt = now
			ks.Failed++
			terminal++
		}
		switch State(img.State) {
		case StateDone, StateFailed:
			j.State = State(img.State)
			j.FinishedAt = img.FinishedAt
			if j.FinishedAt.IsZero() {
				j.FinishedAt = now
			}
			if len(img.Result) > 0 {
				var v any
				if json.Unmarshal(img.Result, &v) == nil {
					j.Result = v
				}
			}
			if j.State == StateDone {
				ks.Done++
			} else {
				ks.Failed++
			}
			terminal++
		default:
			switch {
			case img.Attempts >= j.MaxAttempts && img.State == string(StateRunning):
				// The process died during the final attempt; requeueing
				// would allow an unbounded crash loop to exceed the
				// attempt budget one restart at a time.
				fail("process restarted during final attempt")
			case len(img.Payload) > 0 && decode == nil:
				fail("restore: no payload decoder")
			default:
				if len(img.Payload) > 0 {
					p, err := decode(j.Kind, img.Payload)
					if err != nil {
						fail(fmt.Sprintf("restore: payload decode failed: %v", err))
						break
					}
					j.Payload = p
				}
				j.State = StateQueued
				j.NotBefore = img.NotBefore
				q.queued++
				ks.Queued++
				q.tenantActive[j.Tenant]++
				requeued++
			}
		}
		q.jobs[j.ID] = j
		q.byAge = append(q.byAge, j)
	}
	q.gauges()
	obs.Emit(obs.ServiceEvent{
		Type: obs.EventWALRestore,
		Detail: fmt.Sprintf("requeued %d, terminal %d, wal_seq %d, skipped %d, snapshot %v",
			requeued, terminal, rep.LastSeq, rep.Skipped, rep.SnapshotUsed),
	})
	obs.Log().Info("queue restored from WAL", "requeued", requeued,
		"terminal", terminal, "wal_seq", rep.LastSeq,
		"skipped", rep.Skipped, "snapshot", rep.SnapshotUsed)
	q.broadcast()
	return requeued, terminal
}

// jobSeqOf parses the numeric counter out of a job-%06d ID (0 when the ID
// does not match, which sorts foreign IDs first and never advances q.seq).
func jobSeqOf(id string) uint64 {
	var seq uint64
	if _, err := fmt.Sscanf(id, "job-%d", &seq); err != nil {
		return 0
	}
	return seq
}

// SnapshotWAL writes the full job table to the WAL snapshot, pruning every
// journal segment it covers. The queue lock is held across the write so
// no record can slip between the captured image and the snapshot's
// sequence horizon. No-op without a WAL.
func (q *Queue) SnapshotWAL() error {
	if q.opts.WAL == nil {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	imgs := make([]wal.JobImage, 0, len(q.byAge))
	for _, j := range q.byAge {
		imgs = append(imgs, q.imageLocked(j, true))
	}
	return q.opts.WAL.Snapshot(q.seq, imgs)
}
