package wal

import "path/filepath"

// Accessors that only tests read.

// Segments reports how many WAL segment files are currently on disk.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	names, _ := filepath.Glob(filepath.Join(l.opts.Dir, "wal-*.jsonl"))
	return len(names)
}
