package seglog

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// decodeSeq is the test record format: a line is its own decimal sequence
// number; anything else is malformed.
func decodeSeq(got *[]int64) func([]byte) (int64, bool) {
	return func(line []byte) (int64, bool) {
		seq, err := strconv.ParseInt(string(line), 10, 64)
		if err != nil || seq <= 0 {
			return 0, false
		}
		*got = append(*got, seq)
		return seq, true
	}
}

func encodeSeq(seq int64) ([]byte, error) { return []byte(strconv.FormatInt(seq, 10)), nil }

func open(t *testing.T, dir string, maxBytes, floor int64) (*Log, []int64) {
	t.Helper()
	var got []int64
	l, err := Open(dir, "seg", maxBytes, floor, decodeSeq(&got))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	return l, got
}

func appendN(t *testing.T, l *Log, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := l.Append(false, encodeSeq); err != nil {
			t.Fatal(err)
		}
	}
}

func segmentNames(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range names {
		names[i] = filepath.Base(n)
	}
	return names
}

func writeFile(t *testing.T, path, data string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestReplaySkipsSealsAndResumes covers replay's rules on a directory with
// foreign files, a malformed interior line, a blank line and a torn tail:
// only prefix-N.jsonl files replay, in name order; bad lines are counted;
// the counter resumes past the highest number; and the torn segment is
// sealed, so the next append opens the segment after it.
func TestReplaySkipsSealsAndResumes(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "seg-00000001.jsonl"), "1\n2\noops\n\n3\n")
	writeFile(t, filepath.Join(dir, "seg-00000002.jsonl"), "4\n5\n-6\n7")
	writeFile(t, filepath.Join(dir, "seg-00000003.jsonl.bak"), "99\n")
	writeFile(t, filepath.Join(dir, "seg-x.jsonl"), "98\n")
	writeFile(t, filepath.Join(dir, "wal-00000009.jsonl"), "97\n")
	if err := os.Mkdir(filepath.Join(dir, "seg-00000004.jsonl"), 0o755); err != nil {
		t.Fatal(err)
	}
	l, got := open(t, dir, 0, 0)
	if want := []int64{1, 2, 3, 4, 5, 7}; !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %v, want %v", got, want)
	}
	if l.Skipped() != 2 || l.Seq() != 7 {
		t.Fatalf("skipped %d, seq %d; want 2, 7", l.Skipped(), l.Seq())
	}
	if seq, err := l.Append(false, encodeSeq); err != nil || seq != 8 {
		t.Fatalf("append = %d, %v; want 8", seq, err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "seg-00000003.jsonl"))
	if err != nil || string(data) != "8\n" {
		t.Fatalf("append after a torn tail wrote %q (%v), want a fresh seg-00000003.jsonl", data, err)
	}
}

// TestReopenCleanSegment: an intact newest segment under the rotation size
// takes the next appends; a full one does not.
func TestReopenCleanSegment(t *testing.T) {
	dir := t.TempDir()
	l, _ := open(t, dir, 0, 0)
	appendN(t, l, 3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, _ = open(t, dir, 0, 0)
	appendN(t, l, 1)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if names := segmentNames(t, dir); len(names) != 1 {
		t.Fatalf("segments %v, want the one reopened", names)
	}
	l, got := open(t, dir, 8, 0) // 8 bytes: "1\n2\n3\n4\n" is full
	if len(got) != 4 {
		t.Fatalf("replayed %v", got)
	}
	appendN(t, l, 1)
	if names := segmentNames(t, dir); len(names) != 2 {
		t.Fatalf("segments %v, want a fresh one after a full segment", names)
	}
}

// TestRotationAndRetain bounds segments by size and deletes the oldest
// whole segments, reporting the records they held.
func TestRotationAndRetain(t *testing.T) {
	dir := t.TempDir()
	l, _ := open(t, dir, 6, 0) // three one-digit records per segment
	appendN(t, l, 9)
	if names := segmentNames(t, dir); len(names) != 3 {
		t.Fatalf("segments %v, want 3", names)
	}
	if n := l.Retain(3); n != 0 {
		t.Fatalf("Retain at the cap dropped %d records", n)
	}
	appendN(t, l, 1)
	if n := l.Retain(2); n != 6 {
		t.Fatalf("Retain(2) dropped %d records, want 6", n)
	}
	if names := segmentNames(t, dir); !reflect.DeepEqual(names, []string{"seg-00000003.jsonl", "seg-00000004.jsonl"}) {
		t.Fatalf("segments after Retain = %v", names)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, got := open(t, dir, 6, 0)
	if want := []int64{7, 8, 9, 10}; !reflect.DeepEqual(got, want) {
		t.Fatalf("replay after Retain = %v, want %v", got, want)
	}
}

// TestCheckpoint publishes the file and deletes every segment; numbering
// continues from the floor a reopen passes.
func TestCheckpoint(t *testing.T) {
	dir := t.TempDir()
	l, _ := open(t, dir, 6, 0)
	appendN(t, l, 5)
	if err := l.Checkpoint("snapshot.json", []byte("5\n")); err != nil {
		t.Fatal(err)
	}
	if names := segmentNames(t, dir); len(names) != 0 {
		t.Fatalf("segments after a checkpoint = %v", names)
	}
	data, err := ReadFile(filepath.Join(dir, "snapshot.json"))
	if err != nil || string(data) != "5\n" {
		t.Fatalf("checkpoint file = %q, %v", data, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, got := open(t, dir, 6, 5)
	if len(got) != 0 || l.Seq() != 5 {
		t.Fatalf("reopen replayed %v at seq %d, want nothing at 5", got, l.Seq())
	}
	if seq, err := l.Append(false, encodeSeq); err != nil || seq != 6 {
		t.Fatalf("append after checkpoint = %d, %v; want 6", seq, err)
	}
}

// TestAppendErrors: a failed encode spends no number, the MaxInt64 guard
// refuses a number replay would skip, a closed log refuses appends and
// checkpoints, and a segment another writer created is never appended to.
func TestAppendErrors(t *testing.T) {
	dir := t.TempDir()
	l, _ := open(t, dir, 0, math.MaxInt64-1)
	if _, err := l.Append(false, func(int64) ([]byte, error) { return nil, errors.New("boom") }); err == nil {
		t.Fatal("a failed encode was appended")
	}
	if seq, err := l.Append(true, encodeSeq); err != nil || seq != math.MaxInt64 {
		t.Fatalf("append = %d, %v; want MaxInt64", seq, err)
	}
	if seq, err := l.Append(false, encodeSeq); err == nil {
		t.Fatalf("append past MaxInt64 acknowledged seq %d", seq)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
	if _, err := l.Append(false, encodeSeq); !errors.Is(err, errClosed) {
		t.Fatalf("append after Close = %v", err)
	}
	if err := l.Checkpoint("snapshot.json", nil); !errors.Is(err, errClosed) {
		t.Fatalf("checkpoint after Close = %v", err)
	}

	dir = t.TempDir()
	l, _ = open(t, dir, 0, 0)
	writeFile(t, filepath.Join(dir, "seg-00000001.jsonl"), "")
	if _, err := l.Append(false, encodeSeq); err == nil || !strings.Contains(err.Error(), "seg-00000001.jsonl") {
		t.Fatalf("append over another writer's segment = %v", err)
	}
}

// TestOpenAndPublishErrors: a store path that is a file fails Open and
// Publish with an error; a missing file reads as nil, an empty one not.
func TestOpenAndPublishErrors(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	writeFile(t, file, "")
	if _, err := Open(filepath.Join(file, "dir"), "seg", 0, 0, decodeSeq(new([]int64))); err == nil {
		t.Fatal("Open under a file succeeded")
	}
	if err := Publish(filepath.Join(file, "dir", "x.json"), []byte("{}")); err == nil {
		t.Fatal("Publish under a file succeeded")
	}
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "x.json.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := Publish(filepath.Join(dir, "x.json"), []byte("{}")); err == nil {
		t.Fatal("Publish over a directory named like its tmp file succeeded")
	}
	if data, err := ReadFile(filepath.Join(dir, "missing")); data != nil || err != nil {
		t.Fatalf("missing file = %q, %v; want nil, nil", data, err)
	}
	if data, err := ReadFile(file); data == nil || len(data) != 0 || err != nil {
		t.Fatalf("empty file = %#v, %v; want a non-nil empty slice", data, err)
	}
	if _, err := ReadFile(dir); err == nil {
		t.Fatal("reading a directory succeeded")
	}
	if err := Publish(filepath.Join(dir, "sub", "x.json"), []byte("{}\n")); err != nil {
		t.Fatal(err)
	}
	if data, err := ReadFile(filepath.Join(dir, "sub", "x.json")); string(data) != "{}\n" || err != nil {
		t.Fatalf("published file = %q, %v", data, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "sub", "x.json.tmp")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("tmp file left behind: %v", err)
	}
}

// TestReplayReadError: a segment that cannot be read fails Open.
func TestReplayReadError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, fmt.Sprintf("seg-%08d.jsonl", 1))
	if err := os.Symlink(filepath.Join(dir, "nowhere"), path); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, "seg", 0, 0, decodeSeq(new([]int64))); err == nil {
		t.Fatal("Open with an unreadable segment succeeded")
	}
}
