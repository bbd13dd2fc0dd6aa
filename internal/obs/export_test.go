package obs

import (
	"encoding/json"
	"fmt"
	"os"
)

// Accessors and helpers that only tests use.

// LastSeq returns the most recently assigned sequence number.
func (l *EventLog) LastSeq() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Enabled reports whether a global recorder is installed.
func Enabled() bool { return global.Load() != nil }

// ReadManifest loads a manifest written by WriteManifest.
func ReadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("obs: parsing manifest %s: %w", path, err)
	}
	return &m, nil
}

// RecordCoeff records a per-coefficient event on the global recorder
// (no-op when observability is disabled).
func RecordCoeff(ev CoeffEvent) { Global().RecordCoeff(ev) }

// Valid reports whether the context carries a trace ID.
func (tc TraceContext) Valid() bool { return tc.TraceID != "" }
