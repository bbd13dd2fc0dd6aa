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
// sequence number. Replay is crash-tolerant the same way the
// internal/obs/history segment store is: a torn tail (the writer died
// mid-line) is skipped and counted, and a segment with a torn tail is
// sealed — appends continue in a fresh segment so the torn bytes can
// never corrupt a later record boundary. Snapshotting prunes every
// segment whose records are fully covered by the snapshot.
package wal

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
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
	// MaxSegmentBytes rotates the active segment once it would exceed this
	// size (default 1 MiB).
	MaxSegmentBytes int64
	// SyncSubmits fsyncs the active segment after every RecSubmit append,
	// making the accept boundary durable: once the HTTP 202 left the
	// building, a crash cannot lose the job. Other record types ride on
	// rotation/snapshot/Close syncs — losing one re-runs a job
	// (at-least-once) but never loses it.
	SyncSubmits bool
	// SyncEvery additionally fsyncs after every N appends of any type
	// (0 = only the SyncSubmits policy).
	SyncEvery int
}

func (o *Options) normalize() {
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 1 << 20
	}
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

// segment is one on-disk WAL file plus the highest record seq it holds.
type segment struct {
	index   int
	path    string
	size    int64
	lastSeq int64
}

// Log is the append side of the WAL. Safe for concurrent use.
type Log struct {
	opts Options

	mu       sync.Mutex
	segments []segment
	seq      int64
	active   *os.File
	appends  int // appends since the last fsync (SyncEvery accounting)
	closed   bool
}

// Open loads (or creates) the WAL in opts.Dir, replaying the snapshot and
// every newer record into the returned Replay.
func Open(opts Options) (*Log, *Replay, error) {
	if opts.Dir == "" {
		return nil, nil, fmt.Errorf("wal: Options.Dir is required")
	}
	opts.normalize()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: creating %s: %w", opts.Dir, err)
	}
	l := &Log{opts: opts}
	rep := &Replay{}

	jobs := map[string]*JobImage{}
	var covered int64 // WAL records with Seq <= covered live inside the snapshot
	if snap, err := readSnapshot(filepath.Join(opts.Dir, "snapshot.json")); err != nil {
		return nil, nil, err
	} else if snap != nil {
		rep.SnapshotUsed = true
		rep.JobSeq = snap.JobSeq
		rep.LastSeq = snap.WALSeq
		covered = snap.WALSeq
		for i := range snap.Jobs {
			img := snap.Jobs[i]
			jobs[img.ID] = &img
		}
	}

	entries, err := os.ReadDir(opts.Dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: reading %s: %w", opts.Dir, err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".jsonl") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	lastClean := true
	for _, name := range names {
		var idx int
		if _, err := fmt.Sscanf(name, "wal-%d.jsonl", &idx); err != nil {
			continue
		}
		path := filepath.Join(opts.Dir, name)
		seg, clean, err := replaySegment(path, idx, covered, jobs, rep)
		if err != nil {
			return nil, nil, err
		}
		l.segments = append(l.segments, seg)
		lastClean = clean
	}
	l.seq = rep.LastSeq
	// Reopen the newest segment for appending only when its tail is intact;
	// otherwise (torn tail, or no segments) the next append seals the torn
	// bytes behind a fresh segment boundary.
	if n := len(l.segments); n > 0 && lastClean && l.segments[n-1].size < opts.MaxSegmentBytes {
		f, err := os.OpenFile(l.segments[n-1].path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: reopening %s: %w", l.segments[n-1].path, err)
		}
		l.active = f
	}

	rep.Jobs = make([]JobImage, 0, len(jobs))
	for _, img := range jobs {
		rep.Jobs = append(rep.Jobs, *img)
	}
	sort.Slice(rep.Jobs, func(i, j int) bool { return rep.Jobs[i].ID < rep.Jobs[j].ID })
	return l, rep, nil
}

// readSnapshot loads snapshot.json; a missing file is not an error, and a
// corrupt one (crash mid-rename cannot happen, but a torn write of the tmp
// could have been renamed by an older implementation) falls back to
// replaying the WAL from the beginning.
func readSnapshot(path string) (*snapshotFile, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: reading snapshot: %w", err)
	}
	var snap snapshotFile
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, nil
	}
	return &snap, nil
}

// replaySegment applies one segment file onto the job table, skipping
// records already covered by the snapshot. clean reports whether every
// byte belonged to a well-formed record line.
func replaySegment(path string, idx int, covered int64, jobs map[string]*JobImage, rep *Replay) (segment, bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return segment{}, false, fmt.Errorf("wal: reading %s: %w", path, err)
	}
	seg := segment{index: idx, path: path, size: int64(len(data))}
	clean := true
	for len(data) > 0 {
		nl := -1
		for i, b := range data {
			if b == '\n' {
				nl = i
				break
			}
		}
		var line []byte
		if nl < 0 {
			line, data = data, nil
			clean = false // torn tail: the writer died mid-line
		} else {
			line, data = data[:nl], data[nl+1:]
		}
		if len(line) == 0 {
			continue
		}
		var rec Record
		if jerr := json.Unmarshal(line, &rec); jerr != nil || rec.Seq <= 0 || rec.Job.ID == "" {
			rep.Skipped++
			clean = clean && nl >= 0
			continue
		}
		if rec.Seq > seg.lastSeq {
			seg.lastSeq = rec.Seq
		}
		if rec.Seq <= covered {
			// Already folded into the snapshot image.
			continue
		}
		if rec.Seq > rep.LastSeq {
			rep.LastSeq = rec.Seq
		}
		apply(jobs, rec, rep)
	}
	return seg, clean, nil
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
// when unset) and writes it to the active segment.
func (l *Log) Append(rec Record) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: log is closed")
	}
	if l.seq == math.MaxInt64 {
		// The next number would wrap to a non-positive seq, which replay
		// skips: the record would be acknowledged and then lost.
		return 0, fmt.Errorf("wal: sequence numbers exhausted at %d", l.seq)
	}
	l.seq++
	rec.Seq = l.seq
	if rec.Time.IsZero() {
		rec.Time = time.Now().UTC()
	}
	line, err := json.Marshal(rec)
	if err != nil {
		l.seq--
		return 0, fmt.Errorf("wal: encoding record: %w", err)
	}
	line = append(line, '\n')

	if l.active != nil && l.tailSize()+int64(len(line)) > l.opts.MaxSegmentBytes && l.tailSize() > 0 {
		if err := l.sealLocked(); err != nil {
			return 0, err
		}
	}
	if l.active == nil {
		if err := l.openSegmentLocked(); err != nil {
			return 0, err
		}
	}
	if _, err := l.active.Write(line); err != nil {
		return 0, fmt.Errorf("wal: appending to %s: %w", l.segments[len(l.segments)-1].path, err)
	}
	tail := &l.segments[len(l.segments)-1]
	tail.size += int64(len(line))
	tail.lastSeq = rec.Seq
	l.appends++
	if (l.opts.SyncSubmits && rec.Type == RecSubmit) ||
		(l.opts.SyncEvery > 0 && l.appends >= l.opts.SyncEvery) {
		l.appends = 0
		_ = l.active.Sync()
	}
	return rec.Seq, nil
}

func (l *Log) tailSize() int64 {
	if len(l.segments) == 0 {
		return 0
	}
	return l.segments[len(l.segments)-1].size
}

// openSegmentLocked starts a fresh segment after the newest existing one.
func (l *Log) openSegmentLocked() error {
	next := 1
	if n := len(l.segments); n > 0 {
		next = l.segments[n-1].index + 1
	}
	path := filepath.Join(l.opts.Dir, fmt.Sprintf("wal-%08d.jsonl", next))
	// O_EXCL: an existing file would mean two logs share the directory.
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating %s: %w", path, err)
	}
	l.active = f
	l.segments = append(l.segments, segment{index: next, path: path})
	return nil
}

// sealLocked fsyncs and closes the active segment.
func (l *Log) sealLocked() error {
	if l.active == nil {
		return nil
	}
	_ = l.active.Sync()
	err := l.active.Close()
	l.active = nil
	l.appends = 0
	if err != nil {
		return fmt.Errorf("wal: sealing segment: %w", err)
	}
	return nil
}

// Snapshot atomically writes the full job-table image at the current WAL
// position and prunes every segment whose records are fully covered by it.
// The caller passes the authoritative in-memory state (the queue's), so a
// replay of snapshot+tail reconstructs exactly what the queue held.
func (l *Log) Snapshot(jobSeq uint64, jobs []JobImage) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log is closed")
	}
	// Seal the active segment first: the snapshot covers every record
	// appended so far, and covered segments must be immutable to prune.
	if err := l.sealLocked(); err != nil {
		return err
	}
	snap := snapshotFile{
		WALSeq:  l.seq,
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
	path := filepath.Join(l.opts.Dir, "snapshot.json")
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating %s: %w", tmp, err)
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("wal: writing snapshot: %w", err)
	}
	_ = f.Sync()
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("wal: publishing snapshot: %w", err)
	}
	// Every sealed segment's records are ≤ l.seq and therefore covered.
	var keep []segment
	for _, seg := range l.segments {
		if seg.lastSeq <= snap.WALSeq {
			_ = os.Remove(seg.path)
			continue
		}
		keep = append(keep, seg)
	}
	l.segments = keep
	return nil
}

// Close fsyncs and closes the active segment. Appends are rejected
// afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.sealLocked()
}
