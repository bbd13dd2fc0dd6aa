package wal

// Accessors that only tests read.

// Segments reports how many WAL segment files are currently on disk.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segments)
}
