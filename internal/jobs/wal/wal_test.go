package wal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"reveal/internal/testkit"
)

// testRecords is a small job history: job-1 runs to done, job-2 fails an
// attempt and requeues, job-3 is submitted late. Split into two halves so
// tests can snapshot in between.
func testRecords() (half1, half2 []Record) {
	sub := func(id, kind string) Record {
		return Record{Type: RecSubmit, Job: JobImage{
			ID: id, Kind: kind, State: "queued", MaxAttempts: 3,
			Payload:     json.RawMessage(`{"kind":"` + kind + `"}`),
			SubmittedAt: time.Unix(1700000000, 0).UTC(),
		}}
	}
	half1 = []Record{
		sub("job-000001", "sleep"),
		{Type: RecStart, Job: JobImage{ID: "job-000001", State: "running", Attempts: 1}},
		sub("job-000002", "attack"),
		{Type: RecLease, Job: JobImage{ID: "job-000002", State: "running", Attempts: 1,
			LeaseWorker: "w1", LeaseExpiry: time.Unix(1700000100, 0).UTC()}},
		{Type: RecFinish, Job: JobImage{ID: "job-000001", State: "done", Attempts: 1,
			Result: json.RawMessage(`{"ok":true}`), FinishedAt: time.Unix(1700000050, 0).UTC()}},
	}
	half2 = []Record{
		{Type: RecRetry, Job: JobImage{ID: "job-000002", State: "queued", Attempts: 1,
			Error: "lease expired (worker w1)", NotBefore: time.Unix(1700000200, 0).UTC()}},
		sub("job-000003", "diagnose"),
	}
	return half1, half2
}

func appendAll(t *testing.T, l *Log, recs []Record) {
	t.Helper()
	for _, rec := range recs {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
}

func openLog(t *testing.T, dir string, opts Options) (*Log, *Replay) {
	t.Helper()
	opts.Dir = dir
	l, rep, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	return l, rep
}

// TestSnapshotReplayEquivalence replays the same record stream two ways —
// straight through, and snapshotted halfway with the tail replayed on top —
// and requires the identical merged job table.
func TestSnapshotReplayEquivalence(t *testing.T) {
	half1, half2 := testRecords()

	plainDir := t.TempDir()
	plain, _ := openLog(t, plainDir, Options{})
	appendAll(t, plain, half1)
	appendAll(t, plain, half2)
	if err := plain.Close(); err != nil {
		t.Fatal(err)
	}
	_, plainRep := openLog(t, plainDir, Options{})

	snapDir := t.TempDir()
	snapLog, _ := openLog(t, snapDir, Options{})
	appendAll(t, snapLog, half1)
	if err := snapLog.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the coordinator restarting between append and snapshot: the
	// reopened log's replayed state is what gets snapshotted.
	snapLog2, mid := openLog(t, snapDir, Options{})
	if mid.SnapshotUsed {
		t.Fatal("no snapshot written yet, but replay claims one was used")
	}
	if err := snapLog2.Snapshot(mid.JobSeq, mid.Jobs); err != nil {
		t.Fatal(err)
	}
	if got := snapLog2.Segments(); got != 0 {
		t.Fatalf("segments after covering snapshot = %d, want 0", got)
	}
	appendAll(t, snapLog2, half2)
	if err := snapLog2.Close(); err != nil {
		t.Fatal(err)
	}
	_, snapRep := openLog(t, snapDir, Options{})

	if !snapRep.SnapshotUsed {
		t.Fatal("snapshot.json was not used on replay")
	}
	if plainRep.JobSeq != snapRep.JobSeq {
		t.Fatalf("JobSeq: plain %d, snapshotted %d", plainRep.JobSeq, snapRep.JobSeq)
	}
	if !reflect.DeepEqual(plainRep.Jobs, snapRep.Jobs) {
		t.Fatalf("replayed job tables differ:\nplain: %+v\nsnap:  %+v", plainRep.Jobs, snapRep.Jobs)
	}
	if plainRep.JobSeq != 3 || len(plainRep.Jobs) != 3 {
		t.Fatalf("JobSeq %d / %d jobs, want 3 / 3", plainRep.JobSeq, len(plainRep.Jobs))
	}
	byID := map[string]JobImage{}
	for _, img := range plainRep.Jobs {
		byID[img.ID] = img
	}
	if img := byID["job-000001"]; img.State != "done" || string(img.Result) != `{"ok":true}` {
		t.Fatalf("job-000001 = %+v, want done with result", img)
	}
	if img := byID["job-000002"]; img.State != "queued" || img.Attempts != 1 || img.Error == "" {
		t.Fatalf("job-000002 = %+v, want queued retry with error", img)
	}
	if img := byID["job-000003"]; img.State != "queued" || img.Kind != "diagnose" {
		t.Fatalf("job-000003 = %+v, want queued diagnose", img)
	}
}

// TestTornTailSkippedAndSealed simulates the writer dying mid-line: the
// torn bytes are skipped (counted, not fatal), every complete record
// survives, and the next append opens a fresh segment so the torn tail can
// never corrupt a later record boundary.
func TestTornTailSkippedAndSealed(t *testing.T) {
	dir := t.TempDir()
	half1, _ := testRecords()
	l, _ := openLog(t, dir, Options{})
	appendAll(t, l, half1)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	seg := filepath.Join(dir, "wal-00000001.jsonl")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":99,"type":"submit","job":{"id":"job-9`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rep := openLog(t, dir, Options{})
	if rep.Skipped != 1 {
		t.Fatalf("skipped = %d, want 1 torn line", rep.Skipped)
	}
	if len(rep.Jobs) != 2 || rep.LastSeq != int64(len(half1)) {
		t.Fatalf("replay lost records: %d jobs, last seq %d", len(rep.Jobs), rep.LastSeq)
	}
	if _, err := l2.Append(Record{Type: RecSubmit, Job: JobImage{ID: "job-000004", State: "queued"}}); err != nil {
		t.Fatal(err)
	}
	if got := l2.Segments(); got != 2 {
		t.Fatalf("segments after torn-tail append = %d, want 2 (sealed + fresh)", got)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	_, rep2 := openLog(t, dir, Options{})
	if rep2.Skipped != 1 || len(rep2.Jobs) != 3 {
		t.Fatalf("second replay: skipped %d, jobs %d (want 1, 3)", rep2.Skipped, len(rep2.Jobs))
	}
}

// TestSegmentRotation bounds segment files by size and prunes them all on
// snapshot.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir, Options{segmentBytes: 256})
	var last JobImage
	for i := 0; i < 20; i++ {
		last = JobImage{ID: "job-000001", State: "running", Attempts: i}
		if _, err := l.Append(Record{Type: RecStart, Job: last}); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Segments(); got < 2 {
		t.Fatalf("segments = %d, want rotation past 1", got)
	}
	if err := l.Snapshot(1, []JobImage{last}); err != nil {
		t.Fatal(err)
	}
	if got := l.Segments(); got != 0 {
		t.Fatalf("segments after snapshot = %d, want 0", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rep := openLog(t, dir, Options{segmentBytes: 256})
	if len(rep.Jobs) != 1 || rep.Jobs[0].Attempts != 19 {
		t.Fatalf("replay = %+v, want the final attempt-19 image", rep.Jobs)
	}
	if rep.LastSeq != 20 {
		t.Fatalf("LastSeq = %d, want 20", rep.LastSeq)
	}
}

// TestUpdateForPrunedJobIsIgnored covers the compaction edge: a delta for
// a job whose submit record was pruned (the job finished and a snapshot
// that no longer lists it took effect) must not resurrect a ghost image.
func TestUpdateForPrunedJobIsIgnored(t *testing.T) {
	dir := t.TempDir()
	l, _ := openLog(t, dir, Options{})
	// Deltas for a job never submitted in this WAL's lifetime.
	if _, err := l.Append(Record{Type: RecFinish, Job: JobImage{ID: "job-000042", State: "done"}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rep := openLog(t, dir, Options{})
	if len(rep.Jobs) != 0 {
		t.Fatalf("replay resurrected a pruned job: %+v", rep.Jobs)
	}
}

// TestReplayCommittedDataDir opens testdata/datadir, written by the code
// at commit 95faf16: snapshot.json, a segment the snapshot covers (left
// behind as by a crash before pruning), and an uncovered segment that
// ends in a torn line. The replay must equal what that code recorded in
// testdata/datadir.replay.json: the merged jobs, JobSeq, LastSeq, Skipped,
// SnapshotUsed, and the sequence number and segment file of the next
// append. A new build must replay an old data directory unchanged.
func TestReplayCommittedDataDir(t *testing.T) {
	const src = "testdata/datadir"
	dir := testkit.CopyDir(t, src)
	l, rep, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got := struct {
		Jobs         []JobImage `json:"jobs"`
		JobSeq       uint64     `json:"job_seq"`
		LastSeq      int64      `json:"last_seq"`
		Skipped      int        `json:"skipped"`
		SnapshotUsed bool       `json:"snapshot_used"`
		NextSeq      int64      `json:"next_seq"`
		NextSegment  string     `json:"next_segment"`
	}{Jobs: rep.Jobs, JobSeq: rep.JobSeq, LastSeq: rep.LastSeq, Skipped: rep.Skipped, SnapshotUsed: rep.SnapshotUsed}
	got.NextSeq, err = l.Append(Record{Type: RecSubmit, Time: time.Unix(1700000100, 0).UTC(),
		Job: JobImage{ID: "job-000004", Kind: "sleep", State: "queued"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
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

// FuzzWALReplay writes arbitrary bytes as the first WAL segment and checks
// what a restart relies on: Open never panics and, with no I/O fault,
// never fails; replay is a pure function of the files, so a reopen
// replays the same state; and a submit that Append acknowledges survives a
// reopen with the fields as written, next to every job replayed before it.
func FuzzWALReplay(f *testing.F) {
	var valid []byte
	half1, half2 := testRecords()
	for i, rec := range append(half1, half2...) {
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
	f.Add([]byte(`{"seq":9223372036854775807,"type":"submit","job":{"id":"job-000001","state":"queued"}}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("wal-%08d.jsonl", 1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		reopen := func() (*Log, *Replay) {
			l, rep, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			return l, rep
		}
		jobsJSON := func(jobs []JobImage) string {
			b, err := json.Marshal(jobs)
			if err != nil {
				t.Fatal(err)
			}
			return string(b)
		}
		l, first := reopen()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l, again := reopen()
		firstJSON, _ := json.Marshal(first)
		againJSON, _ := json.Marshal(again)
		if string(firstJSON) != string(againJSON) {
			t.Fatalf("reopen replayed %s, first open %s", againJSON, firstJSON)
		}

		fresh := JobImage{ID: "fuzz-fresh", Kind: "sleep", State: "queued", MaxAttempts: 1,
			Payload: json.RawMessage(`{"kind":"sleep"}`), SubmittedAt: time.Unix(1700000000, 0).UTC()}
		for _, j := range first.Jobs {
			if j.ID >= fresh.ID {
				fresh.ID = j.ID + "~"
			}
		}
		if _, err := l.Append(Record{Type: RecSubmit, Job: fresh}); err != nil {
			_ = l.Close()
			return
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l, after := reopen()
		defer l.Close()
		if want, got := jobsJSON(append(first.Jobs, fresh)), jobsJSON(after.Jobs); got != want {
			t.Fatalf("after an acknowledged submit, reopen replayed %s, want %s", got, want)
		}
	})
}
