package history

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Store defaults; see Options.
const (
	DefaultMaxSegmentBytes = 1 << 20
	DefaultMaxSegments     = 8
)

// Options configures a Store.
type Options struct {
	// Dir is the store directory (created when missing). Required.
	Dir string
	// MaxSegmentBytes rotates the active segment once it would exceed this
	// size (default 1 MiB).
	MaxSegmentBytes int64
	// MaxSegments bounds the number of on-disk segments; the oldest segment
	// (and its records) is deleted once the cap is exceeded (default 8).
	MaxSegments int
	// SyncEvery fsyncs the active segment after every N appends (0 syncs
	// only on rotation and Close — crash tolerance comes from the replay,
	// not from per-record durability).
	SyncEvery int
}

func (o *Options) normalize() {
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = DefaultMaxSegmentBytes
	}
	if o.MaxSegments <= 0 {
		o.MaxSegments = DefaultMaxSegments
	}
}

// segment is one on-disk JSONL file plus how many live records it holds
// (the in-memory index drops whole segments as retention deletes them).
type segment struct {
	index int
	path  string
	count int
	size  int64
}

// Store is the append-only history store: JSONL segment files on disk, the
// full retention window mirrored in a sorted in-memory index. Safe for
// concurrent use.
type Store struct {
	opts Options

	mu       sync.Mutex
	segments []segment
	records  []RunRecord // sorted by Seq; aligned with segments front-to-back
	seq      int64
	active   *os.File
	pending  int // appends since the last fsync
	skipped  int // malformed lines ignored during Open
	closed   bool
}

// Open loads (or creates) the store in opts.Dir, replaying every segment
// into the in-memory index. Replay is crash-tolerant: malformed lines (a
// torn tail from a crashed writer) are skipped and counted, and a segment
// with a torn tail is sealed — appends go to a fresh segment so the torn
// bytes can never corrupt a later record boundary.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("history: Options.Dir is required")
	}
	opts.normalize()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("history: creating %s: %w", opts.Dir, err)
	}
	s := &Store{opts: opts}

	entries, err := os.ReadDir(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("history: reading %s: %w", opts.Dir, err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".jsonl") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	lastClean := true
	for _, name := range names {
		var idx int
		if _, err := fmt.Sscanf(name, "seg-%d.jsonl", &idx); err != nil {
			continue
		}
		path := filepath.Join(opts.Dir, name)
		count, size, clean, err := s.replaySegment(path)
		if err != nil {
			return nil, err
		}
		s.segments = append(s.segments, segment{index: idx, path: path, count: count, size: size})
		lastClean = clean
	}
	sort.Slice(s.records, func(i, j int) bool { return s.records[i].Seq < s.records[j].Seq })
	for _, r := range s.records {
		if r.Seq > s.seq {
			s.seq = r.Seq
		}
	}
	// Reopen the newest segment for appending only when its tail is intact;
	// otherwise (or with no segments at all) the next Append starts fresh.
	if n := len(s.segments); n > 0 && lastClean && s.segments[n-1].size < opts.MaxSegmentBytes {
		f, err := os.OpenFile(s.segments[n-1].path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("history: reopening %s: %w", s.segments[n-1].path, err)
		}
		s.active = f
	}
	return s, nil
}

// replaySegment loads one segment file into the index. clean reports
// whether every byte of the file belonged to a well-formed record line.
func (s *Store) replaySegment(path string) (count int, size int64, clean bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, false, fmt.Errorf("history: reading %s: %w", path, err)
	}
	clean = true
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
		var rec RunRecord
		if jerr := json.Unmarshal(line, &rec); jerr != nil || rec.Seq <= 0 {
			s.skipped++
			clean = clean && nl >= 0 // a malformed interior line still seals nothing
			continue
		}
		s.records = append(s.records, rec)
		count++
	}
	fi, err := os.Stat(path)
	if err != nil {
		return 0, 0, false, err
	}
	return count, fi.Size(), clean, nil
}

// Append stamps rec with the next sequence number (and the current time
// when unset), writes it to the active segment, and indexes it. Rotation
// and retention enforcement happen inline.
func (s *Store) Append(rec RunRecord) (RunRecord, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return rec, fmt.Errorf("history: store is closed")
	}
	s.seq++
	rec.Seq = s.seq
	if rec.Time.IsZero() {
		rec.Time = time.Now().UTC()
	}
	line, err := json.Marshal(rec)
	if err != nil {
		s.seq--
		return rec, fmt.Errorf("history: encoding record: %w", err)
	}
	line = append(line, '\n')

	if s.active != nil && s.tailSize()+int64(len(line)) > s.opts.MaxSegmentBytes && s.tailSize() > 0 {
		if err := s.rotateLocked(); err != nil {
			return rec, err
		}
	}
	if s.active == nil {
		if err := s.openSegmentLocked(); err != nil {
			return rec, err
		}
	}
	if _, err := s.active.Write(line); err != nil {
		return rec, fmt.Errorf("history: appending to %s: %w", s.segments[len(s.segments)-1].path, err)
	}
	tail := &s.segments[len(s.segments)-1]
	tail.size += int64(len(line))
	tail.count++
	s.records = append(s.records, rec)
	if s.opts.SyncEvery > 0 {
		s.pending++
		if s.pending >= s.opts.SyncEvery {
			s.pending = 0
			_ = s.active.Sync()
		}
	}
	s.enforceRetentionLocked()
	return rec, nil
}

func (s *Store) tailSize() int64 {
	if len(s.segments) == 0 {
		return 0
	}
	return s.segments[len(s.segments)-1].size
}

// openSegmentLocked starts a fresh segment after the newest existing one.
func (s *Store) openSegmentLocked() error {
	next := 1
	if n := len(s.segments); n > 0 {
		next = s.segments[n-1].index + 1
	}
	path := filepath.Join(s.opts.Dir, fmt.Sprintf("seg-%08d.jsonl", next))
	// O_EXCL: a fresh segment must not already exist — an existing file
	// would mean two stores share the directory.
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("history: creating %s: %w", path, err)
	}
	s.active = f
	s.segments = append(s.segments, segment{index: next, path: path})
	return nil
}

// rotateLocked seals the active segment (fsync + close).
func (s *Store) rotateLocked() error {
	if s.active == nil {
		return nil
	}
	_ = s.active.Sync()
	err := s.active.Close()
	s.active = nil
	s.pending = 0
	if err != nil {
		return fmt.Errorf("history: sealing segment: %w", err)
	}
	return nil
}

// enforceRetentionLocked deletes whole oldest segments past MaxSegments,
// dropping their records from the index.
func (s *Store) enforceRetentionLocked() {
	for len(s.segments) > s.opts.MaxSegments {
		old := s.segments[0]
		s.segments = s.segments[1:]
		if old.count > 0 && old.count <= len(s.records) {
			s.records = s.records[old.count:]
		}
		_ = os.Remove(old.path)
	}
}

// Query selects records oldest-first.
type Query struct {
	// Kind and Tenant filter when non-empty.
	Kind   string `json:"kind,omitempty"`
	Tenant string `json:"tenant,omitempty"`
	// AfterSeq returns only records with Seq > AfterSeq (the cursor).
	AfterSeq int64 `json:"after_seq,omitempty"`
	// Limit bounds the page size (default 100, max 1000).
	Limit int `json:"limit,omitempty"`
}

// QueryResult is one page of records plus the cursor to resume from.
type QueryResult struct {
	Records []RunRecord `json:"records"`
	// NextAfter is the Seq of the last returned record (pass it back as
	// AfterSeq to fetch the next page); equal to the request cursor when
	// the page is empty.
	NextAfter int64 `json:"next_after"`
	// Total counts every retained record matching the filters, ignoring
	// the cursor and limit.
	Total int `json:"total"`
}

// Query returns matching records oldest-first with cursor pagination.
func (s *Store) Query(q Query) QueryResult {
	limit := q.Limit
	if limit <= 0 {
		limit = 100
	}
	if limit > 1000 {
		limit = 1000
	}
	res := QueryResult{NextAfter: q.AfterSeq}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Records are Seq-sorted: skip straight to the cursor.
	start := sort.Search(len(s.records), func(i int) bool { return s.records[i].Seq > q.AfterSeq })
	for i := 0; i < len(s.records); i++ {
		r := &s.records[i]
		if q.Kind != "" && r.Kind != q.Kind {
			continue
		}
		if q.Tenant != "" && r.Tenant != q.Tenant {
			continue
		}
		res.Total++
		if i >= start && len(res.Records) < limit {
			res.Records = append(res.Records, *r)
		}
	}
	if n := len(res.Records); n > 0 {
		res.NextAfter = res.Records[n-1].Seq
	}
	return res
}

// Recent returns the newest n records for kind/tenant ("" matches all),
// oldest-first — the window the aggregation engine and watchdog consume.
func (s *Store) Recent(kind, tenant string, n int) []RunRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []RunRecord
	for i := len(s.records) - 1; i >= 0 && (n <= 0 || len(out) < n); i-- {
		r := &s.records[i]
		if kind != "" && r.Kind != kind {
			continue
		}
		if tenant != "" && r.Tenant != tenant {
			continue
		}
		out = append(out, *r)
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// Kinds returns the distinct campaign kinds present, sorted.
func (s *Store) Kinds() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	set := map[string]bool{}
	for i := range s.records {
		set[s.records[i].Kind] = true
	}
	kinds := make([]string, 0, len(set))
	for k := range set {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// Len reports the number of retained records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.records)
}

// Skipped reports how many malformed lines the Open replay ignored.
func (s *Store) Skipped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.skipped
}

// Close fsyncs and closes the active segment. The store rejects appends
// afterwards; queries keep working on the in-memory index.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.active == nil {
		return nil
	}
	_ = s.active.Sync()
	err := s.active.Close()
	s.active = nil
	return err
}
