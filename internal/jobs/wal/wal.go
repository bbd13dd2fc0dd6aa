// Package wal is the persistent job store behind the campaign queue: an
// append-only write-ahead log of job lifecycle records plus a periodic
// snapshot, so a coordinator crash or restart loses zero accepted jobs.
//
// The on-disk layout under Options.Dir is
//
//	snapshot.json      full job-table image at some WAL sequence (atomic
//	                   tmp+rename write)
//	wal-00000001.jsonl lifecycle records after the snapshot, one JSON
//	                   object per line, rotated by size
//
// Replay applies the snapshot and then every record with a higher
// sequence number. The segments are an internal/seglog log, the one the
// internal/obs/history store keeps too: it owns replay, torn-tail
// sealing, rotation, fsync and the snapshot's atomic publish.
// Snapshotting deletes every segment, since the snapshot covers all of
// their records.
package wal

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"reveal/internal/seglog"
)

// RecordType tags one WAL record.
type RecordType string

// The job lifecycle record types. Submit carries the full job image
// (including the serialized payload); the others are deltas merged onto
// the image by ID during replay.
const (
	RecSubmit RecordType = "submit"
	RecStart  RecordType = "start" // no longer written; replayed from older journals
	RecLease  RecordType = "lease" // leased to a fabric worker (grant or renewal)
	RecRetry  RecordType = "retry" // failed attempt, requeued with backoff
	RecFinish RecordType = "finish"
)

// JobImage is the durable image of one job. Submit records populate every
// identity field; later records carry only the fields that changed (the
// zero values are "unchanged" except State, which every record sets).
type JobImage struct {
	ID          string          `json:"id"`
	Kind        string          `json:"kind,omitempty"`
	TraceID     string          `json:"trace_id,omitempty"`
	Tenant      string          `json:"tenant,omitempty"`
	Payload     json.RawMessage `json:"payload,omitempty"`
	State       string          `json:"state,omitempty"`
	Attempts    int             `json:"attempts,omitempty"`
	MaxAttempts int             `json:"max_attempts,omitempty"`
	SubmittedAt time.Time       `json:"submitted_at"`
	FinishedAt  time.Time       `json:"finished_at"`
	Deadline    time.Time       `json:"deadline"`
	NotBefore   time.Time       `json:"not_before"`
	Error       string          `json:"error,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
	LeaseWorker string          `json:"lease_worker,omitempty"`
	LeaseExpiry time.Time       `json:"lease_expiry"`
}

// Record is one WAL line.
type Record struct {
	Seq  int64      `json:"seq"`
	Time time.Time  `json:"time"`
	Type RecordType `json:"type"`
	Job  JobImage   `json:"job"`
}

// Options configures a Log.
type Options struct {
	// Dir is the store directory (created when missing). Required.
	Dir string
	// SyncSubmits fsyncs the active segment after every RecSubmit append,
	// making the accept boundary durable: once the HTTP 202 left the
	// building, a crash cannot lose the job, and Append reports a failed
	// fsync so the submission is refused instead. Other record types ride
	// on rotation/snapshot/Close syncs — losing one re-runs a job
	// (at-least-once) but never loses it.
	SyncSubmits bool
	// segmentBytes overrides the 1 MiB rotation size; only tests set it.
	segmentBytes int64
}

// snapshotFile is the snapshot.json schema.
type snapshotFile struct {
	// WALSeq is the last WAL sequence number covered by this snapshot;
	// replay applies only records with Seq > WALSeq.
	WALSeq int64 `json:"wal_seq"`
	// JobSeq is the queue's job-ID counter at snapshot time.
	JobSeq uint64 `json:"job_seq"`
	// TakenAt stamps the snapshot.
	TakenAt time.Time  `json:"taken_at"`
	Jobs    []JobImage `json:"jobs"`
}

// Replay is the merged state reconstructed by Open.
type Replay struct {
	// Jobs holds one merged image per job, sorted by ID.
	Jobs []JobImage
	// JobSeq is the job-ID counter to resume from (max of the snapshot's
	// counter and every replayed submit).
	JobSeq uint64
	// LastSeq is the highest WAL sequence number seen.
	LastSeq int64
	// Skipped counts malformed or torn lines ignored during replay.
	Skipped int
	// SnapshotUsed reports whether a snapshot.json was loaded.
	SnapshotUsed bool
}

// Log is the append side of the WAL. Safe for concurrent use.
type Log struct {
	opts Options
	mu   sync.Mutex
	log  *seglog.Log
}

// Open loads (or creates) the WAL in opts.Dir, replaying the snapshot and
// every newer record into the returned Replay.
func Open(opts Options) (*Log, *Replay, error) {
	if opts.Dir == "" {
		return nil, nil, fmt.Errorf("wal: Options.Dir is required")
	}
	rep := &Replay{}
	jobs := map[string]*JobImage{}
	var covered int64 // WAL records with Seq <= covered live inside the snapshot
	if snap, err := readSnapshot(filepath.Join(opts.Dir, "snapshot.json")); err != nil {
		return nil, nil, err
	} else if snap != nil {
		rep.SnapshotUsed = true
		rep.JobSeq = snap.JobSeq
		covered = snap.WALSeq
		for i := range snap.Jobs {
			img := snap.Jobs[i]
			jobs[img.ID] = &img
		}
	}
	log, err := seglog.Open(opts.Dir, "wal", opts.segmentBytes, covered, func(line []byte) (int64, bool) {
		var rec Record
		if json.Unmarshal(line, &rec) != nil || rec.Seq <= 0 || rec.Job.ID == "" {
			return 0, false
		}
		if rec.Seq > covered {
			apply(jobs, rec, rep)
		}
		return rec.Seq, true
	})
	if err != nil {
		return nil, nil, err
	}
	rep.LastSeq, rep.Skipped = log.Seq(), log.Skipped()
	rep.Jobs = make([]JobImage, 0, len(jobs))
	for _, img := range jobs {
		rep.Jobs = append(rep.Jobs, *img)
	}
	sort.Slice(rep.Jobs, func(i, j int) bool { return rep.Jobs[i].ID < rep.Jobs[j].ID })
	return &Log{opts: opts, log: log}, rep, nil
}

// readSnapshot loads snapshot.json; a missing file is not an error, and a
// corrupt one (crash mid-rename cannot happen, but a torn write of the tmp
// could have been renamed by an older implementation) falls back to
// replaying the WAL from the beginning.
func readSnapshot(path string) (*snapshotFile, error) {
	data, err := seglog.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("wal: reading snapshot: %w", err)
	}
	var snap snapshotFile
	if data == nil || json.Unmarshal(data, &snap) != nil {
		return nil, nil
	}
	return &snap, nil
}

// apply merges one record onto the job table.
func apply(jobs map[string]*JobImage, rec Record, rep *Replay) {
	img := jobs[rec.Job.ID]
	if img == nil {
		if rec.Type != RecSubmit {
			// An update for a job the snapshot compacted away and whose
			// submit record was pruned: nothing to merge onto.
			return
		}
		img = &JobImage{ID: rec.Job.ID}
		jobs[rec.Job.ID] = img
	}
	u := rec.Job
	switch rec.Type {
	case RecSubmit:
		*img = u
		var seq uint64
		if _, err := fmt.Sscanf(u.ID, "job-%d", &seq); err == nil && seq > rep.JobSeq {
			rep.JobSeq = seq
		}
	case RecStart, RecLease, RecRetry, RecFinish:
		img.State = u.State
		img.Attempts = u.Attempts
		img.NotBefore = u.NotBefore
		img.LeaseWorker = u.LeaseWorker
		img.LeaseExpiry = u.LeaseExpiry
		img.Error = u.Error
		if !u.FinishedAt.IsZero() {
			img.FinishedAt = u.FinishedAt
		}
		if len(u.Result) > 0 {
			img.Result = u.Result
		}
	}
}

// Append stamps rec with the next sequence number (and the current time
// when unset) and writes it to the active segment. Under SyncSubmits a
// submit record is fsynced before Append returns, and a failed fsync is
// an error.
func (l *Log) Append(rec Record) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if rec.Time.IsZero() {
		rec.Time = time.Now().UTC()
	}
	return l.log.Append(l.opts.SyncSubmits && rec.Type == RecSubmit, func(seq int64) ([]byte, error) {
		rec.Seq = seq
		return json.Marshal(rec)
	})
}

// Snapshot atomically writes the full job-table image at the current WAL
// position and deletes every segment, whose records it covers.
// The caller passes the authoritative in-memory state (the queue's), so a
// replay of snapshot+tail reconstructs exactly what the queue held.
func (l *Log) Snapshot(jobSeq uint64, jobs []JobImage) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	snap := snapshotFile{
		WALSeq:  l.log.Seq(),
		JobSeq:  jobSeq,
		TakenAt: time.Now().UTC(),
		Jobs:    jobs,
	}
	// Compact encoding: MarshalIndent would re-indent the embedded raw
	// payload/result bytes, so a snapshot round-trip would not be
	// byte-identical to pure journal replay.
	data, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("wal: encoding snapshot: %w", err)
	}
	return l.log.Checkpoint("snapshot.json", append(data, '\n'))
}

// Close fsyncs and closes the active segment. Appends are rejected
// afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.log.Close()
}
