package history

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"reveal/internal/testkit"
)

func testRecord(kind, tenant string, acc float64) RunRecord {
	return RunRecord{
		Kind: kind, Tenant: tenant, Seed: 1,
		ElapsedSeconds: 0.25,
		Stages:         map[string]float64{"attack_seconds": 0.2},
		Metrics:        map[string]float64{"value_accuracy": acc, "mean_margin": acc / 2},
	}
}

func TestStoreAppendQueryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		kind := "attack"
		if i%3 == 0 {
			kind = "diagnose"
		}
		rec, err := s.Append(testRecord(kind, "ci", 0.9))
		if err != nil {
			t.Fatal(err)
		}
		if rec.Seq != int64(i+1) {
			t.Fatalf("seq = %d, want %d", rec.Seq, i+1)
		}
		if rec.Time.IsZero() {
			t.Fatal("Append must stamp Time")
		}
	}
	res := s.Query(Query{Kind: "attack"})
	if res.Total != 6 || len(res.Records) != 6 {
		t.Fatalf("attack query: total %d, page %d, want 6/6", res.Total, len(res.Records))
	}
	for i := 1; i < len(res.Records); i++ {
		if res.Records[i].Seq <= res.Records[i-1].Seq {
			t.Fatal("records must be oldest-first")
		}
	}
	if got := s.Kinds(); len(got) != 2 || got[0] != "attack" || got[1] != "diagnose" {
		t.Fatalf("Kinds = %v", got)
	}

	// Cursor pagination: two pages of 3 cover all 6 attack records.
	page1 := s.Query(Query{Kind: "attack", Limit: 3})
	if len(page1.Records) != 3 || page1.NextAfter != page1.Records[2].Seq {
		t.Fatalf("page1 = %d records, next %d", len(page1.Records), page1.NextAfter)
	}
	page2 := s.Query(Query{Kind: "attack", AfterSeq: page1.NextAfter, Limit: 10})
	if len(page2.Records) != 3 {
		t.Fatalf("page2 = %d records, want 3", len(page2.Records))
	}
	if page2.Records[0].Seq <= page1.Records[2].Seq {
		t.Fatal("page2 must start after page1's cursor")
	}
	empty := s.Query(Query{Kind: "attack", AfterSeq: page2.NextAfter})
	if len(empty.Records) != 0 || empty.NextAfter != page2.NextAfter {
		t.Fatalf("exhausted cursor returned %d records, next %d", len(empty.Records), empty.NextAfter)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreReplayAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Append(testRecord("attack", "", 0.8+float64(i)/100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 5 || s2.LastSeq() != 5 {
		t.Fatalf("reopened store: len %d lastSeq %d, want 5/5", s2.Len(), s2.LastSeq())
	}
	// Sequence numbering continues where the previous incarnation stopped.
	rec, err := s2.Append(testRecord("attack", "", 0.9))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Seq != 6 {
		t.Fatalf("post-reopen seq = %d, want 6", rec.Seq)
	}
	got := s2.Query(Query{}).Records
	if got[0].Metrics["value_accuracy"] != 0.8 {
		t.Fatalf("oldest record corrupted: %+v", got[0])
	}
}

func TestStoreTornTailIsSkippedAndSealed(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Append(testRecord("attack", "", 0.9)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: a torn, newline-less JSON fragment.
	seg := filepath.Join(dir, "seg-00000001.jsonl")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":4,"kind":"att`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 3 {
		t.Fatalf("len after torn tail = %d, want 3", s2.Len())
	}
	if s2.Skipped() != 1 {
		t.Fatalf("skipped = %d, want 1", s2.Skipped())
	}
	// The torn segment is sealed: the next append must open a new segment,
	// leaving the torn bytes isolated.
	if _, err := s2.Append(testRecord("attack", "", 0.9)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "seg-00000002.jsonl")); err != nil {
		t.Fatalf("append after torn tail must start a fresh segment: %v", err)
	}
	if got := s2.Query(Query{}).Total; got != 4 {
		t.Fatalf("total after reopen+append = %d, want 4", got)
	}
}

func TestStoreRotationAndRetention(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force constant rotation; maxSegments 3 forces drops.
	s, err := Open(Options{Dir: dir, segmentBytes: 512, maxSegments: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const total = 200
	for i := 0; i < total; i++ {
		if _, err := s.Append(testRecord("attack", "", 0.9)); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "seg-") {
			segs++
		}
	}
	if segs > 3 {
		t.Fatalf("retention kept %d segments, cap 3", segs)
	}
	if s.Len() >= total || s.Len() == 0 {
		t.Fatalf("index len = %d, want 0 < len < %d after retention", s.Len(), total)
	}
	// The retained window is the newest suffix and stays queryable.
	res := s.Query(Query{Limit: 1000})
	if res.Total != s.Len() {
		t.Fatalf("query total %d != len %d", res.Total, s.Len())
	}
	if last := res.Records[len(res.Records)-1].Seq; last != int64(total) {
		t.Fatalf("newest seq = %d, want %d", last, total)
	}
}

// TestStoreConcurrentAppendQuery hammers the store from parallel appenders,
// queriers, and aggregators while tiny segments keep rotation and retention
// compaction constantly active — the -race workout the service relies on.
func TestStoreConcurrentAppendQuery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, segmentBytes: 2048, maxSegments: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const (
		writers    = 4
		perWriter  = 150
		queriers   = 3
		iterations = 60
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				kind := "attack"
				if i%2 == 0 {
					kind = "diagnose"
				}
				rec := testRecord(kind, fmt.Sprintf("t%d", w), 0.9)
				if _, err := s.Append(rec); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cursor int64
			for i := 0; i < iterations; i++ {
				res := s.Query(Query{AfterSeq: cursor, Limit: 50})
				for j := 1; j < len(res.Records); j++ {
					if res.Records[j].Seq <= res.Records[j-1].Seq {
						t.Error("page not strictly seq-ordered")
						return
					}
				}
				cursor = res.NextAfter
				s.Aggregate("attack", "", 32)
				s.Kinds()
				time.Sleep(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if s.LastSeq() != writers*perWriter {
		t.Fatalf("lastSeq = %d, want %d", s.LastSeq(), writers*perWriter)
	}
}

func TestStoreRejectsMissingDir(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("Open without Dir must fail")
	}
}

func TestStoreClosedAppendFails(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(testRecord("attack", "", 1)); err == nil {
		t.Fatal("append after Close must fail")
	}
}

// TestReplayCommittedDataDir opens testdata/datadir, written by the code
// at commit 95faf16: two segments, the second ending in a torn line. The
// replay must equal what that code recorded in
// testdata/datadir.replay.json: the records, Skipped, and the sequence
// number and segment file of the next append. A new build must replay an
// old data directory unchanged.
func TestReplayCommittedDataDir(t *testing.T) {
	const src = "testdata/datadir"
	dir := testkit.CopyDir(t, src)
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got := struct {
		Records     []RunRecord `json:"records"`
		Skipped     int         `json:"skipped"`
		NextSeq     int64       `json:"next_seq"`
		NextSegment string      `json:"next_segment"`
	}{Records: s.Query(Query{Limit: 1000}).Records, Skipped: s.Skipped()}
	rec, err := s.Append(RunRecord{Time: time.Unix(1700000100, 0).UTC(), Kind: "attack"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got.NextSeq = rec.Seq
	got.NextSegment = strings.Join(testkit.ChangedFiles(t, src, dir), " ")
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/datadir.replay.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(data)+"\n" != string(want) {
		t.Fatalf("replay of %s = %s\nwant %s", src, data, want)
	}
}

// FuzzHistoryReplay writes arbitrary bytes as the first history segment and
// checks what the drift watchdog and /api/v1/history rely on after a
// restart: Open never panics and, with no I/O fault, never fails; replay is
// a pure function of the files, so a reopen replays the same records and
// the same Skipped; and a record that Append acknowledges survives a
// reopen as the newest record, as written, next to every record replayed
// before it.
func FuzzHistoryReplay(f *testing.F) {
	var valid []byte
	for i := 0; i < 4; i++ {
		rec := testRecord("attack", "ci", 0.9)
		rec.Seq = int64(i + 1)
		rec.Time = time.Unix(1700000000, 0).UTC()
		line, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		valid = append(append(valid, line...), '\n')
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-7]) // torn tail
	f.Add(append([]byte("\n"), valid...))
	f.Add([]byte(`{"seq":9223372036854775807,"kind":"attack"}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("seg-%08d.jsonl", 1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		reopen := func() *Store {
			s, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			return s
		}
		// lines renders records as sorted JSON lines: replay orders records
		// by seq, and records sharing a seq have no defined order.
		lines := func(recs []RunRecord) string {
			out := make([]string, len(recs))
			for i, r := range recs {
				b, err := json.Marshal(r)
				if err != nil {
					t.Fatal(err)
				}
				out[i] = string(b)
			}
			sort.Strings(out)
			return strings.Join(out, "\n")
		}
		s := reopen()
		first, skipped := s.Recent("", "", 0), s.Skipped()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s = reopen()
		if again := s.Recent("", "", 0); lines(again) != lines(first) || s.Skipped() != skipped {
			t.Fatalf("reopen replayed %d records (skipped %d), first open %d (skipped %d)",
				len(again), s.Skipped(), len(first), skipped)
		}

		fresh := RunRecord{Time: time.Unix(1700000000, 0).UTC(), Kind: "fuzz-fresh",
			Metrics: map[string]float64{"value_accuracy": 1}}
		acked, err := s.Append(fresh)
		if err != nil {
			_ = s.Close()
			return
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s = reopen()
		defer s.Close()
		after := s.Recent("", "", 0)
		if n := len(after); n != len(first)+1 || lines(after[n-1:]) != lines([]RunRecord{acked}) {
			t.Fatalf("after an acknowledged append at seq %d, reopen replayed %d records ending %s, want %d",
				acked.Seq, n, lines(after[max(n-1, 0):]), len(first)+1)
		}
		if lines(after[:len(first)]) != lines(first) {
			t.Fatal("an append changed the records replayed before it")
		}
	})
}
