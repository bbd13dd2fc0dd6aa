// Package seglog is the segmented log under the job WAL
// (internal/jobs/wal) and the quality history (internal/obs/history): a
// directory of numbered JSONL segment files, prefix-00000001.jsonl
// onwards, one record per line, each record carrying a positive sequence
// number the log assigns.
//
// Replay is crash-tolerant. A line that does not decode is skipped and
// counted, and a segment that does not end on a complete line (the writer
// died mid-line) is sealed: appends continue in a fresh segment, so the
// torn bytes can never corrupt a later record boundary. The log also owns
// size rotation, fsync on seal and on Close, deleting whole segments, and
// the tmp + fsync + rename publish of files kept beside the segments.
package seglog

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// segmentBytes is the rotation size when Open is given none: a segment is
// sealed once the next line would take it past this size.
const segmentBytes = 1 << 20

// segment is one on-disk file.
type segment struct {
	index   int
	path    string
	size    int64
	records int // lines that decoded, plus lines appended
}

// Log is an open segmented log. It is not safe for concurrent use; each
// store serializes its calls under its own mutex.
type Log struct {
	dir      string
	prefix   string
	maxBytes int64
	segments []segment
	seq      int64
	skipped  int
	active   *os.File // the newest segment, open for appending; nil until the next Append opens one
	closed   bool
}

// Open creates dir when missing and replays its prefix-NNNNNNNN.jsonl
// segments in name order, passing each non-empty line to decode, which
// returns the line's sequence number, or false to have the line skipped
// and counted. The sequence counter resumes at the larger of floor and the
// highest number decoded. maxBytes is the rotation size (0 means 1 MiB).
func Open(dir, prefix string, maxBytes, floor int64, decode func(line []byte) (seq int64, ok bool)) (*Log, error) {
	if maxBytes <= 0 {
		maxBytes = segmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("seglog: creating %s: %w", dir, err)
	}
	entries, err := os.ReadDir(dir) // sorted by name
	if err != nil {
		return nil, fmt.Errorf("seglog: reading %s: %w", dir, err)
	}
	l := &Log{dir: dir, prefix: prefix, maxBytes: maxBytes, seq: floor}
	clean := true
	for _, e := range entries {
		name := e.Name()
		var idx int
		if e.IsDir() || !strings.HasPrefix(name, prefix+"-") || !strings.HasSuffix(name, ".jsonl") {
			continue
		}
		if _, err := fmt.Sscanf(name, prefix+"-%d.jsonl", &idx); err != nil {
			continue
		}
		seg := segment{index: idx, path: filepath.Join(dir, name)}
		if clean, err = l.replay(&seg, decode); err != nil {
			return nil, err
		}
		l.segments = append(l.segments, seg)
	}
	// Reopen the newest segment for appending only when its tail is intact;
	// otherwise (torn tail, or no segments) the next Append seals the torn
	// bytes behind a fresh segment boundary.
	if n := len(l.segments); n > 0 && clean && l.segments[n-1].size < maxBytes {
		f, err := os.OpenFile(l.segments[n-1].path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("seglog: reopening %s: %w", l.segments[n-1].path, err)
		}
		l.active = f
	}
	return l, nil
}

// replay decodes one segment file and reports whether it ends on a
// complete line.
func (l *Log) replay(seg *segment, decode func([]byte) (int64, bool)) (bool, error) {
	data, err := os.ReadFile(seg.path)
	if err != nil {
		return false, fmt.Errorf("seglog: reading %s: %w", seg.path, err)
	}
	seg.size = int64(len(data))
	clean := len(data) == 0 || data[len(data)-1] == '\n'
	for len(data) > 0 {
		var line []byte
		line, data, _ = bytes.Cut(data, []byte{'\n'})
		if len(line) == 0 {
			continue
		}
		seq, ok := decode(line)
		if !ok {
			l.skipped++
			continue
		}
		seg.records++
		l.seq = max(l.seq, seq)
	}
	return clean, nil
}

var errClosed = errors.New("seglog: log is closed")

// Append assigns the next sequence number, encodes the record with it and
// writes the line to the newest segment, first sealing that segment when
// the line would take it past the rotation size. With sync it fsyncs the
// segment and reports a failed fsync. A failed encode spends no number.
func (l *Log) Append(sync bool, encode func(seq int64) ([]byte, error)) (int64, error) {
	if l.closed {
		return 0, errClosed
	}
	if l.seq == math.MaxInt64 {
		// The next number would wrap to a negative seq, which replay skips:
		// the record would be acknowledged and then lost.
		return 0, fmt.Errorf("seglog: sequence numbers exhausted at %d", l.seq)
	}
	seq := l.seq + 1
	line, err := encode(seq)
	if err != nil {
		return 0, fmt.Errorf("seglog: encoding record: %w", err)
	}
	line = append(line, '\n')
	if l.active != nil {
		if tail := l.segments[len(l.segments)-1]; tail.size > 0 && tail.size+int64(len(line)) > l.maxBytes {
			if err := l.seal(); err != nil {
				return 0, err
			}
		}
	}
	if l.active == nil {
		if err := l.create(); err != nil {
			return 0, err
		}
	}
	l.seq = seq
	tail := &l.segments[len(l.segments)-1]
	if _, err := l.active.Write(line); err != nil {
		// A partial line must not prefix the next record: seal it behind a
		// segment boundary, as replay does with a torn tail. The write
		// error is the one to report.
		_ = l.seal()
		return 0, fmt.Errorf("seglog: appending to %s: %w", tail.path, err)
	}
	tail.size += int64(len(line))
	tail.records++
	if sync {
		if err := l.active.Sync(); err != nil {
			return 0, fmt.Errorf("seglog: syncing %s: %w", tail.path, err)
		}
	}
	return seq, nil
}

// create starts a fresh segment after the newest existing one.
func (l *Log) create() error {
	next := 1
	if n := len(l.segments); n > 0 {
		next = l.segments[n-1].index + 1
	}
	path := filepath.Join(l.dir, fmt.Sprintf("%s-%08d.jsonl", l.prefix, next))
	// O_EXCL: an existing file would mean two logs share the directory.
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("seglog: creating %s: %w", path, err)
	}
	l.active = f
	l.segments = append(l.segments, segment{index: next, path: path})
	return nil
}

// seal fsyncs and closes the active segment.
func (l *Log) seal() error {
	if l.active == nil {
		return nil
	}
	name := l.active.Name()
	err := l.active.Sync()
	if cerr := l.active.Close(); err == nil {
		err = cerr
	}
	l.active = nil
	if err != nil {
		return fmt.Errorf("seglog: sealing %s: %w", name, err)
	}
	return nil
}

// drop deletes the oldest n segments and returns how many records they
// held. A segment whose file cannot be deleted is replayed again after a
// restart, which a store's replay tolerates.
func (l *Log) drop(n int) (records int) {
	for _, seg := range l.segments[:n] {
		records += seg.records
		_ = os.Remove(seg.path)
	}
	l.segments = l.segments[n:]
	return records
}

// Retain deletes the oldest segments until at most n ≥ 1 remain, and
// returns how many records they held.
func (l *Log) Retain(n int) int {
	return l.drop(max(len(l.segments)-n, 0))
}

// Checkpoint seals the active segment, publishes data as name in the log's
// directory and, once that is durable, deletes every segment: a snapshot
// taken at Seq covers all of their records.
func (l *Log) Checkpoint(name string, data []byte) error {
	if l.closed {
		return errClosed
	}
	if err := l.seal(); err != nil {
		return err
	}
	if err := Publish(filepath.Join(l.dir, name), data); err != nil {
		return err
	}
	l.drop(len(l.segments))
	return nil
}

// Seq returns the last sequence number assigned or replayed.
func (l *Log) Seq() int64 { return l.seq }

// Skipped returns how many lines replay skipped.
func (l *Log) Skipped() int { return l.skipped }

// Close seals the active segment; the log rejects appends afterwards.
func (l *Log) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	return l.seal()
}

// Publish replaces path with data atomically, creating its directory when
// missing: it writes path.tmp, fsyncs it and renames it over path, so a
// reader finds the old file or the new one, never a torn mix.
func Publish(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("seglog: creating %s: %w", filepath.Dir(path), err)
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("seglog: creating %s: %w", tmp, err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		return fmt.Errorf("seglog: publishing %s: %w", path, err)
	}
	return nil
}

// ReadFile reads a file kept beside a log, such as one Publish wrote. A
// missing file reads as nil data and no error; an existing one, even an
// empty one, as a non-nil slice.
func ReadFile(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	return data, err
}
