package main

import (
	"time"

	"reveal/internal/obs"
)

// programStages is the recorder installed on traced operations of the
// in-process workloads, so the program's own stage spans (capture, segment,
// classify, dbdd, …) are counted; untraced operations run with observability
// off, as a library caller does.
var programStages = obs.New(obs.Options{})

// setProgramTracing installs or removes the stage recorder before an
// operation. Only single-client workloads call it.
func setProgramTracing(on bool) {
	if on {
		obs.SetGlobal(programStages)
	} else {
		obs.SetGlobal(nil)
	}
}

// stage reads one program stage's cumulative duration, run count and item
// count from the recorder's registry.
type stage struct {
	dur   *obs.Histogram
	items *obs.Counter
}

func newStage(rec *obs.Recorder, name string) stage {
	reg := rec.Registry()
	return stage{
		dur:   reg.Histogram(obs.LabelKey(obs.MetricStageDuration, "stage", name)),
		items: reg.Counter(obs.LabelKey(obs.MetricStageItems, "stage", name)),
	}
}

// stageMark is a stage's cumulative counters at one instant.
type stageMark struct {
	seconds    float64
	runs, item int64
}

func (s stage) mark() stageMark {
	return stageMark{seconds: s.dur.Sum(), runs: s.dur.Count(), item: s.items.Value()}
}

// since returns the stage time (ms), runs and items accumulated since m.
func (s stage) since(m stageMark) (msec float64, runs, items int64) {
	now := s.mark()
	return 1e3 * (now.seconds - m.seconds), now.runs - m.runs, now.item - m.item
}

// span times one call into a layer from the benchmark's side: it is a
// no-op unless the operation is traced.
type span struct {
	on    bool
	start time.Time
}

func startSpan(on bool) span {
	if !on {
		return span{}
	}
	return span{on: true, start: time.Now()}
}

// end adds the span's duration in ms to layers[name].
func (s span) end(layers map[string]float64, name string) {
	if s.on {
		layers[name] += ms(time.Since(s.start))
	}
}
