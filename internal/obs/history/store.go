package history

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"reveal/internal/seglog"
)

// retainSegments is the retention cap: once rotation makes a ninth 1 MiB
// segment, the oldest one and its records are deleted.
const retainSegments = 8

// Options configures a Store.
type Options struct {
	// Dir is the store directory (created when missing). Required.
	Dir string
	// segmentBytes and maxSegments override the 1 MiB rotation size and
	// the 8-segment retention; only tests set them.
	segmentBytes int64
	maxSegments  int
}

// Store is the append-only history store: an internal/seglog log of
// JSONL segment files on disk, the full retention window mirrored in a
// sorted in-memory index. Safe for concurrent use.
type Store struct {
	maxSegments int

	mu      sync.Mutex
	log     *seglog.Log
	records []RunRecord // sorted by Seq; aligned with the log's segments front-to-back
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
	s := &Store{maxSegments: opts.maxSegments}
	if s.maxSegments <= 0 {
		s.maxSegments = retainSegments
	}
	log, err := seglog.Open(opts.Dir, "seg", opts.segmentBytes, 0, func(line []byte) (int64, bool) {
		var rec RunRecord
		if json.Unmarshal(line, &rec) != nil || rec.Seq <= 0 {
			return 0, false
		}
		s.records = append(s.records, rec)
		return rec.Seq, true
	})
	if err != nil {
		return nil, err
	}
	s.log = log
	sort.Slice(s.records, func(i, j int) bool { return s.records[i].Seq < s.records[j].Seq })
	return s, nil
}

// Append stamps rec with the next sequence number (and the current time
// when unset), writes it to the active segment, and indexes it. Rotation
// and retention enforcement happen inline.
func (s *Store) Append(rec RunRecord) (RunRecord, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec.Time.IsZero() {
		rec.Time = time.Now().UTC()
	}
	if _, err := s.log.Append(false, func(seq int64) ([]byte, error) {
		rec.Seq = seq
		return json.Marshal(rec)
	}); err != nil {
		return rec, err
	}
	s.records = append(s.records, rec)
	// Retention deletes whole oldest segments, and with them the index's
	// oldest records.
	s.records = s.records[s.log.Retain(s.maxSegments):]
	return rec, nil
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
	return s.log.Skipped()
}

// Close fsyncs and closes the active segment. The store rejects appends
// afterwards; queries keep working on the in-memory index.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Close()
}
