package history

import "fmt"

// Accessors that only tests use: the store's sequence counter and a
// manual re-pin of a drift baseline.

// LastSeq reports the most recently assigned sequence number.
func (s *Store) LastSeq() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Seq()
}

// Pin re-pins kind's baseline from its current rolling window (manual
// re-baselining after an accepted change) and clears its alert state.
func (w *Watchdog) Pin(kind string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	win := w.windows[kind]
	if len(win) == 0 {
		return fmt.Errorf("history: no observed runs of kind %q to pin", kind)
	}
	w.baselines[kind] = meansOf(win)
	w.alerting[kind] = map[string]bool{}
	w.persistLocked()
	return nil
}
