package core

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"reveal/internal/obs"
)

func smallDiagnosticsOptions() DiagnosticsOptions {
	opts := DefaultProfileOptions()
	opts.Q = 12289
	opts.MaxAbsValue = 3
	opts.TracesPerValue = 40
	opts.Templates.POICount = 8
	opts.Templates.MinSpacing = 1
	return DiagnosticsOptions{Profile: opts}
}

func TestDiagnoseReportsLeakage(t *testing.T) {
	dev := NewLowNoiseDevice(71)
	report, err := Diagnose(context.Background(), dev, smallDiagnosticsOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Sets) != 3 {
		t.Fatalf("got %d sets, want sign/pos/neg", len(report.Sets))
	}
	byName := map[string]SetDiagnostics{}
	for _, s := range report.Sets {
		byName[s.Name] = s
	}
	sign := byName["sign"]
	if sign.Classes != 3 {
		t.Fatalf("sign set classes = %d, want 3", sign.Classes)
	}
	if sign.SNR.Max <= 0 {
		t.Fatalf("sign SNR max = %v, want > 0", sign.SNR.Max)
	}
	if len(sign.TTests) != 2 {
		t.Fatalf("sign adjacent pairs = %d, want 2", len(sign.TTests))
	}
	// The branch leak (V1) is the paper's strongest signal: the sign pairs
	// must clear the TVLA threshold on the low-noise device.
	for _, p := range sign.TTests {
		if !p.Leaky {
			t.Fatalf("sign pair (%d,%d) not leaky: max |t| = %v", p.LabelA, p.LabelB, p.Summary.Max)
		}
	}
	if report.TotalPairs == 0 || report.LeakyPairs == 0 {
		t.Fatalf("pair counts = %d/%d", report.LeakyPairs, report.TotalPairs)
	}
	for _, s := range report.Sets {
		if s.Health == nil || s.POIOverlap == nil {
			t.Fatalf("set %s missing health/overlap: %+v", s.Name, s)
		}
		if s.Health.Classes != s.Classes {
			t.Fatalf("set %s: template classes %d vs set classes %d", s.Name, s.Health.Classes, s.Classes)
		}
	}
	// Healthy must equal "no warnings".
	if report.Healthy != (len(report.Warnings) == 0) {
		t.Fatalf("healthy=%v with %d warnings", report.Healthy, len(report.Warnings))
	}

	// The report must serialize (revealctl diagnose -json path).
	if _, err := json.Marshal(report); err != nil {
		t.Fatalf("report not serializable: %v", err)
	}
	text := FormatDiagnostics(report)
	for _, want := range []string{"[sign]", "[pos]", "[neg]", "SNR", "t-test", "pairs leaky"} {
		if !strings.Contains(text, want) {
			t.Fatalf("formatted report missing %q:\n%s", want, text)
		}
	}
}

func TestProfileSplitMatchesMonolith(t *testing.T) {
	// CollectProfilingSets + TrainClassifier must reproduce Profile exactly
	// (same device seed → same plan, same traces, same templates).
	opts := DefaultProfileOptions()
	opts.Q = 12289
	opts.MaxAbsValue = 2
	opts.TracesPerValue = 20
	whole, err := Profile(NewDevice(72), opts)
	if err != nil {
		t.Fatal(err)
	}
	sets, err := CollectProfilingSets(context.Background(), NewDevice(72), opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	split, err := TrainClassifier(context.Background(), sets, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if whole.Length != split.Length || whole.MaxAbsValue != split.MaxAbsValue {
		t.Fatalf("split classifier differs: %d/%d vs %d/%d",
			whole.Length, whole.MaxAbsValue, split.Length, split.MaxAbsValue)
	}
	wantPOIs := whole.Sign.POIs
	gotPOIs := split.Sign.POIs
	if len(wantPOIs) != len(gotPOIs) {
		t.Fatalf("POI count %d vs %d", len(wantPOIs), len(gotPOIs))
	}
	for i := range wantPOIs {
		if wantPOIs[i] != gotPOIs[i] {
			t.Fatalf("POIs differ: %v vs %v", wantPOIs, gotPOIs)
		}
	}
}

func TestEmitCoeffEvents(t *testing.T) {
	rec := obs.New(obs.Options{CoeffCapacity: 64})
	obs.SetGlobal(rec)
	defer obs.SetGlobal(nil)

	res := &AttackResult{
		Values: []int{1, -2},
		Signs:  []int{1, -1},
		Probs: []Posterior{
			posteriorOf(map[int]float64{1: 0.8, 0: 0.2}),
			posteriorOf(map[int]float64{-2: 0.6, -1: 0.4}),
		},
	}
	EmitCoeffEvents(context.Background(), "e1", res, []int64{1, -1})
	events, dropped := rec.CoeffEvents()
	if len(events) != 2 || dropped != 0 {
		t.Fatalf("events=%d dropped=%d", len(events), dropped)
	}
	if !events[0].Correct || events[0].Rank != 1 || events[0].Poly != "e1" {
		t.Fatalf("first event = %+v", events[0])
	}
	if events[1].Correct || events[1].True != -1 || events[1].Rank != 2 {
		t.Fatalf("second event = %+v", events[1])
	}
	if events[1].Margin <= 0 || events[1].EntropyBits <= 0 {
		t.Fatalf("posterior stats unpopulated: %+v", events[1])
	}

	// Truth shorter than the result must not panic, and the disabled path
	// must be a no-op.
	EmitCoeffEvents(context.Background(), "e2", res, []int64{1})
	if events, _ := rec.CoeffEvents(); len(events) != 3 {
		t.Fatalf("short-truth emission got %d events", len(events))
	}
	obs.SetGlobal(nil)
	EmitCoeffEvents(context.Background(), "e2", res, []int64{1, 2})
}
