// Package history is the service's quality memory: a crash-tolerant,
// append-only on-disk store of compact per-job run records (JSONL segments
// of an internal/seglog log, the one the job WAL keeps too, with an
// in-memory index and size/retention caps), an aggregation engine
// over them (count, mean, quantiles, EWMA per campaign kind), and a
// direction-aware drift watchdog that compares fresh aggregates against
// pinned baselines using the same tolerance semantics as the
// `revealctl compare` regression gate.
//
// The attack's results are statistical — per-coefficient accuracy, posterior
// margin, SNR/TVLA maxima, DBDD bikz — and a classifier can degrade quietly
// across thousands of campaigns while every individual run still "works".
// The store keeps the trajectory; the watchdog turns it into journal events
// and a counter the moment it bends the wrong way.
package history

import "time"

// RunRecord is one completed job's compact quality summary — the unit the
// store persists and the aggregation engine consumes. Records are small on
// purpose (a few hundred bytes): the store holds its whole retention window
// in memory.
type RunRecord struct {
	// Seq is the store-assigned monotonic sequence number; /api/v1/history
	// cursors paginate on it.
	Seq int64 `json:"seq"`
	// Time is the record timestamp (UTC), stamped by Append when zero.
	Time time.Time `json:"time"`
	// JobID and TraceID tie the record back to the job's run directory and
	// the originating request's journal events.
	JobID   string `json:"job_id,omitempty"`
	TraceID string `json:"trace_id,omitempty"`
	// Kind is the campaign kind ("attack", "diagnose", ...); aggregation
	// and drift detection group on it.
	Kind string `json:"kind"`
	// Tenant attributes the run to a client identity ("" = untagged).
	Tenant string `json:"tenant,omitempty"`
	// Seed is the campaign seed (recorded so drifting runs can be replayed).
	Seed uint64 `json:"seed,omitempty"`
	// ElapsedSeconds is the job's successful-attempt wall clock.
	ElapsedSeconds float64 `json:"elapsed_seconds,omitempty"`
	// Stages holds per-stage durations in seconds (queue_wait_seconds,
	// profile_seconds, attack_seconds, ...). Aggregated under "stage." keys
	// so the *_seconds suffix keeps them direction-classified as timing.
	Stages map[string]float64 `json:"stages,omitempty"`
	// Metrics holds the quality numbers (value_accuracy, mean_margin,
	// snr_max, tvla_max, hinted_bikz, template_health, ...). Names follow
	// the obs.CompareMetrics direction conventions so the watchdog knows
	// which way each one is allowed to move.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Values flattens the record into the dotted metric namespace shared with
// obs.RunMetrics: quality metrics keep their bare names, stage durations
// are prefixed "stage.", and the job wall clock becomes elapsed_seconds.
func (r *RunRecord) Values() map[string]float64 {
	out := make(map[string]float64, len(r.Metrics)+len(r.Stages)+1)
	for k, v := range r.Metrics {
		out[k] = v
	}
	for k, v := range r.Stages {
		out["stage."+k] = v
	}
	if r.ElapsedSeconds > 0 {
		out["elapsed_seconds"] = r.ElapsedSeconds
	}
	return out
}
