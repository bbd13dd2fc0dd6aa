package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSpanEmitsTraceEvents(t *testing.T) {
	rec := New(Options{TraceCapacity: 16})
	parent := rec.StartSpan("attack")
	child := parent.Child("e1")
	child.AddItems(7)
	child.End()
	parent.End()

	events, dropped := rec.TraceEvents()
	if dropped != 0 {
		t.Fatalf("dropped = %d, want 0", dropped)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	byName := map[string]TraceEvent{}
	for _, ev := range events {
		byName[ev.Name] = ev
	}
	ch, ok := byName["attack/e1"]
	if !ok {
		t.Fatalf("child span event missing, have %v", byName)
	}
	if ch.Phase != "X" || ch.PID != 1 || ch.TID != 1 {
		t.Fatalf("child event = %+v", ch)
	}
	if ch.Args["items"] != int64(7) {
		t.Fatalf("child args = %v", ch.Args)
	}
	pa := byName["attack"]
	if pa.TS > ch.TS || pa.TS+pa.Dur < ch.TS+ch.Dur {
		t.Fatalf("parent [%v,%v] does not contain child [%v,%v]",
			pa.TS, pa.TS+pa.Dur, ch.TS, ch.TS+ch.Dur)
	}
}

func TestTraceBufferBounded(t *testing.T) {
	rec := New(Options{TraceCapacity: 4})
	for i := 0; i < 10; i++ {
		rec.StartSpan("segment").End()
	}
	events, dropped := rec.TraceEvents()
	if len(events) != 4 || dropped != 6 {
		t.Fatalf("len=%d dropped=%d, want 4/6", len(events), dropped)
	}
	// The metrics keep counting past the buffer cap.
	if runs := rec.Registry().Counter(stageKey(MetricStageRuns, "segment")).Value(); runs != 10 {
		t.Fatalf("runs counter = %d, want 10", runs)
	}
}

func TestWriteTraceJSONIsChromeFormat(t *testing.T) {
	rec := New(Options{TraceCapacity: 16})
	sp := rec.StartSpan("profile")
	sp.Child("collect").End()
	sp.End()
	rec.Instant("warning", map[string]any{"msg": "ill-conditioned"})

	var buf bytes.Buffer
	if err := rec.WriteTraceJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
			PID   int     `json:"pid"`
			TID   int     `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace.json is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	// Metadata record + 2 spans + 1 instant.
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("got %d events, want 4:\n%s", len(doc.TraceEvents), buf.String())
	}
	if doc.TraceEvents[0].Phase != "M" || doc.TraceEvents[0].Name != "process_name" {
		t.Fatalf("first event must be process metadata, got %+v", doc.TraceEvents[0])
	}
	for i := 2; i < len(doc.TraceEvents); i++ {
		if doc.TraceEvents[i].TS < doc.TraceEvents[i-1].TS {
			t.Fatalf("events not sorted by ts: %+v", doc.TraceEvents)
		}
	}
}

func TestRecordCoeffJournalAndMetrics(t *testing.T) {
	rec := New(Options{CoeffCapacity: 8})
	SetGlobal(rec)
	defer SetGlobal(nil)

	RecordCoeff(CoeffEvent{
		Poly: "e2", Index: 3, True: -2, Predicted: -2, Sign: -1,
		Correct: true, Margin: 0.9, EntropyBits: 0.4, Rank: 1,
	})
	RecordCoeff(CoeffEvent{
		Poly: "e2", Index: 4, True: 1, Predicted: 2, Sign: 1,
		Correct: false, Margin: 0.1, EntropyBits: 2.1, Rank: 2,
	})

	events, dropped := rec.CoeffEvents()
	if len(events) != 2 || dropped != 0 {
		t.Fatalf("journal len=%d dropped=%d", len(events), dropped)
	}
	if events[0].Poly != "e2" || events[0].Rank != 1 || !events[0].Correct {
		t.Fatalf("first event = %+v", events[0])
	}
	if n := rec.Registry().Counter(MetricCoeffEvents).Value(); n != 2 {
		t.Fatalf("%s = %d, want 2", MetricCoeffEvents, n)
	}
	if n := rec.Registry().Counter(MetricCoeffCorrect).Value(); n != 1 {
		t.Fatalf("%s = %d, want 1", MetricCoeffCorrect, n)
	}
	if h := rec.Registry().Histogram(MetricCoeffRank); h.Count() != 2 || h.Max() != 2 {
		t.Fatalf("rank histogram count=%d max=%v", h.Count(), h.Max())
	}

	var buf bytes.Buffer
	if err := rec.WriteCoeffsJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		var ev CoeffEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d not JSON: %v", lines, err)
		}
		lines++
	}
	if lines != 2 {
		t.Fatalf("coeffs.jsonl has %d lines, want 2", lines)
	}
}

func TestTopMargin(t *testing.T) {
	cases := []struct {
		name   string
		probs  []float64
		margin float64
		ok     bool
	}{
		{"empty", nil, 0, false},
		{"single", []float64{0.9}, 0.9, true},
		{"two", []float64{0.7, 0.2}, 0.5, true},
		{"many", []float64{0.5, 0.3, 0.15, 0.05}, 0.2, true},
		{"ascending", []float64{0.05, 0.15, 0.3, 0.5}, 0.2, true},
		{"tied", []float64{0.4, 0.4, 0.2}, 0, true},
	}
	for _, tc := range cases {
		m, ok := TopMargin(tc.probs)
		if ok != tc.ok {
			t.Errorf("%s: ok = %v, want %v", tc.name, ok, tc.ok)
		}
		if math.Abs(m-tc.margin) > 1e-12 {
			t.Errorf("%s: margin = %v, want %v", tc.name, m, tc.margin)
		}
	}
}

func TestPosteriorStats(t *testing.T) {
	labels, probs := []int{-1, 0, 1}, []float64{0.1, 0.7, 0.2}
	margin, entropy, rank := PosteriorStats(labels, probs, 0)
	if math.Abs(margin-0.5) > 1e-12 {
		t.Fatalf("margin = %v, want 0.5", margin)
	}
	want := -(0.1*math.Log2(0.1) + 0.7*math.Log2(0.7) + 0.2*math.Log2(0.2))
	if math.Abs(entropy-want) > 1e-12 {
		t.Fatalf("entropy = %v, want %v", entropy, want)
	}
	if rank != 1 {
		t.Fatalf("rank = %d, want 1", rank)
	}
	if _, _, rank = PosteriorStats(labels, probs, 1); rank != 2 {
		t.Fatalf("rank of runner-up = %d, want 2", rank)
	}
	if _, _, rank = PosteriorStats(labels, probs, 9); rank != 4 {
		t.Fatalf("rank of non-candidate = %d, want len+1 = 4", rank)
	}
	if m, e, r := PosteriorStats(nil, nil, 0); m != 0 || e != 0 || r != 1 {
		t.Fatalf("empty posterior stats = %v %v %v", m, e, r)
	}
}

func TestRunFinishWritesEventArtifacts(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	run, err := StartRun(dir, RunOptions{Tool: "obs_test", Command: "trace", Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	sp := StartSpan("classify")
	sp.AddItems(2)
	sp.End()
	RecordCoeff(CoeffEvent{Poly: "e1", Index: 0, True: 1, Predicted: 1, Correct: true, Rank: 1})
	if err := run.Finish(); err != nil {
		t.Fatal(err)
	}
	traceData, err := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(traceData) || !strings.Contains(string(traceData), `"classify"`) {
		t.Fatalf("trace.json invalid or missing span:\n%s", traceData)
	}
	coeffData, err := os.ReadFile(filepath.Join(dir, "coeffs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(coeffData), `"poly":"e1"`) {
		t.Fatalf("coeffs.jsonl missing event:\n%s", coeffData)
	}
}

// TestRunDisabledTracing: a run whose recorder buffers neither spans nor
// coefficient events writes neither trace.json nor coeffs.jsonl.
func TestRunDisabledTracing(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "run")
	run, err := StartRun(dir, RunOptions{Tool: "obs_test", Command: "notrace", Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	run.Recorder = New(Options{Logger: run.Recorder.Logger()})
	SetGlobal(run.Recorder)
	StartSpan("classify").End()
	if err := run.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "trace.json")); !os.IsNotExist(err) {
		t.Fatalf("trace.json should not exist: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "coeffs.jsonl")); !os.IsNotExist(err) {
		t.Fatalf("coeffs.jsonl should not exist: %v", err)
	}
}
