package history

import (
	"math"
	"sort"
)

// EWMAAlpha is the smoothing factor of the exponentially weighted moving
// average in MetricAggregate: ~0.3 tracks a drifting metric within a
// handful of runs without whipsawing on a single outlier.
const EWMAAlpha = 0.3

// MetricAggregate summarizes one metric's trajectory across a window of
// run records (chronological order).
type MetricAggregate struct {
	Metric string  `json:"metric"`
	Count  int     `json:"count"`
	Mean   float64 `json:"mean"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	P50    float64 `json:"p50"`
	P95    float64 `json:"p95"`
	// Last is the newest observation; EWMA is the exponentially weighted
	// moving average (alpha EWMAAlpha), which leans toward recent runs.
	Last float64 `json:"last"`
	EWMA float64 `json:"ewma"`
}

// KindAggregate is the aggregation of one campaign kind's recent records.
type KindAggregate struct {
	Kind   string `json:"kind"`
	Tenant string `json:"tenant,omitempty"`
	// Runs is how many records were aggregated (the window actually used).
	Runs int `json:"runs"`
	// Metrics is sorted by metric name. Stage durations appear under
	// "stage.*" and the job wall clock as "elapsed_seconds".
	Metrics []MetricAggregate `json:"metrics,omitempty"`
}

// AggregateRecords computes per-metric aggregates over records, which must
// be in chronological (oldest-first) order for Last/EWMA to be meaningful.
// A metric missing from some records is aggregated over the records that
// carry it.
func AggregateRecords(records []RunRecord) []MetricAggregate {
	series := map[string][]float64{}
	for i := range records {
		for name, v := range records[i].Values() {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			series[name] = append(series[name], v)
		}
	}
	out := make([]MetricAggregate, 0, len(series))
	for name, vals := range series {
		agg := MetricAggregate{Metric: name, Count: len(vals), Min: vals[0], Max: vals[0]}
		sum := 0.0
		ewma := vals[0]
		for i, v := range vals {
			sum += v
			if v < agg.Min {
				agg.Min = v
			}
			if v > agg.Max {
				agg.Max = v
			}
			if i > 0 {
				ewma = EWMAAlpha*v + (1-EWMAAlpha)*ewma
			}
		}
		agg.Mean = sum / float64(len(vals))
		agg.Last = vals[len(vals)-1]
		agg.EWMA = ewma
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		agg.P50 = quantile(sorted, 0.50)
		agg.P95 = quantile(sorted, 0.95)
		out = append(out, agg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Metric < out[j].Metric })
	return out
}

// quantile reads q from an ascending slice (nearest-rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Aggregate summarizes the newest window records of kind/tenant ("" matches
// all; window <= 0 uses every retained record).
func (s *Store) Aggregate(kind, tenant string, window int) KindAggregate {
	recs := s.Recent(kind, tenant, window)
	return KindAggregate{Kind: kind, Tenant: tenant, Runs: len(recs), Metrics: AggregateRecords(recs)}
}
