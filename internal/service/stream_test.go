package service

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"reveal/internal/bfv"
	"reveal/internal/core"
	"reveal/internal/jobs"
	"reveal/internal/obs"
)

// TestEndToEndStreamCampaign drives the stream kind through the full
// service path twice against one template cache: first with batch
// verification (the determinism contract end to end — stream digest must
// match the batch digest, no early exit), then with a target bikz armed
// (must exit before classifying the full polynomial).
func TestEndToEndStreamCampaign(t *testing.T) {
	_, client := newTestService(t, Config{PoolWorkers: 1, CacheCapacity: 2})
	ctx := context.Background()

	submit := func(spec *CampaignSpec) *StreamCampaignResult {
		t.Helper()
		st, err := client.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		waitCtx, cancel := context.WithTimeout(ctx, 180*time.Second)
		defer cancel()
		done, err := client.WaitDone(waitCtx, st.ID, 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if done.State != jobs.StateDone {
			t.Fatalf("campaign ended %s: %s", done.State, done.Error)
		}
		var got StreamCampaignResult
		if err := client.Result(ctx, st.ID, &got); err != nil {
			t.Fatal(err)
		}
		return &got
	}

	full := submit(&CampaignSpec{
		Kind: KindStream, Seed: 21, ProfileTracesPerValue: 8,
		VerifyBatch: true, ChunkSamples: 2048,
	})
	if !full.DigestsMatch {
		t.Error("stream digest does not match the batch digest")
	}
	if full.EarlyExitRuns != 0 {
		t.Errorf("early exit fired without a target bikz (%d runs)", full.EarlyExitRuns)
	}
	if full.CoefficientsTotal != 1024 || full.ClassifiedTotal != 1024 {
		t.Errorf("classified %d of %d coefficients, want 1024 of 1024",
			full.ClassifiedTotal, full.CoefficientsTotal)
	}
	if full.IngestBytes <= 0 {
		t.Error("no RVTS ingest bytes recorded")
	}
	if full.SignAcc < 0.9 {
		t.Errorf("sign accuracy %.3f implausibly low", full.SignAcc)
	}
	if full.MeanTTVSeconds <= 0 || full.MeanTTFHSeconds <= 0 ||
		full.MeanTTFHSeconds > full.MeanTTVSeconds {
		t.Errorf("latencies out of order: ttfh %.6fs, ttv %.6fs",
			full.MeanTTFHSeconds, full.MeanTTVSeconds)
	}

	// Aim between the baseline and the (far lower) full-hint estimate: a
	// few percent below the baseline is reached after a fraction of the
	// coefficients, so the stream must stop mid-trace.
	inst, err := core.LWEInstanceForParams(bfv.PaperParameters())
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := inst.EstimateBikz()
	if err != nil {
		t.Fatal(err)
	}
	early := submit(&CampaignSpec{
		Kind: KindStream, Seed: 21, ProfileTracesPerValue: 8,
		TargetBikz: baseline * 0.95,
	})
	if !early.CacheHit {
		t.Error("second campaign with the same profile must hit the template cache")
	}
	if early.EarlyExitRuns != 1 {
		t.Fatalf("early_exit_runs = %d, want 1", early.EarlyExitRuns)
	}
	if early.ClassifiedTotal >= early.CoefficientsTotal {
		t.Errorf("classified %d of %d coefficients despite early exit",
			early.ClassifiedTotal, early.CoefficientsTotal)
	}
	if early.HintedBikz > baseline*0.95 || early.HintedBikz <= 0 {
		t.Errorf("verdict bikz %.2f not at or below the target %.2f",
			early.HintedBikz, baseline*0.95)
	}
	if early.IngestBytes >= full.IngestBytes {
		t.Errorf("early exit ingested %d bytes, full run only %d",
			early.IngestBytes, full.IngestBytes)
	}
}

// TestStreamCampaignJournalsE2: a stream campaign journals one coefficient
// event per e2 coefficient, stamped with the campaign's trace ID, and with
// no target bikz those events equal the e2 events an attack campaign of
// the same seed journals.
func TestStreamCampaignJournalsE2(t *testing.T) {
	rec := obs.New(obs.Options{CoeffCapacity: 4096})
	prev := obs.Global()
	obs.SetGlobal(rec)
	t.Cleanup(func() { obs.SetGlobal(prev) })
	const traceID = "00000000000000e2"
	ctx := obs.WithTraceContext(context.Background(), obs.TraceContext{TraceID: traceID})
	r := &Runner{Cache: core.NewTemplateCache(1), Workers: 1}
	coord := New(Config{PoolWorkers: -1})
	journal := func(spec *CampaignSpec, run func(context.Context, *CampaignSpec) error) []obs.CoeffEvent {
		t.Helper()
		if err := spec.Normalize(); err != nil {
			t.Fatal(err)
		}
		before, _ := rec.CoeffEvents()
		if err := run(ctx, spec); err != nil {
			t.Fatal(err)
		}
		events, dropped := rec.CoeffEvents()
		if dropped != 0 {
			t.Fatalf("journal dropped %d events", dropped)
		}
		var e2 []obs.CoeffEvent
		for _, ev := range events[len(before):] {
			if ev.Poly == "e2" {
				e2 = append(e2, ev)
			}
		}
		return e2
	}
	streamed := journal(&CampaignSpec{Kind: KindStream, Seed: 21, ProfileTracesPerValue: 8},
		func(ctx context.Context, spec *CampaignSpec) error {
			_, err := r.runStream(ctx, spec, coord, "local")
			return err
		})
	batch := journal(&CampaignSpec{Kind: KindAttack, Seed: 21, ProfileTracesPerValue: 8},
		func(ctx context.Context, spec *CampaignSpec) error {
			_, err := r.runAttack(ctx, spec, coord, "local")
			return err
		})
	const n = 1024
	if len(streamed) != n || len(batch) != n {
		t.Fatalf("journaled %d stream and %d batch e2 events, want %d each", len(streamed), len(batch), n)
	}
	for i, ev := range streamed {
		if ev.TraceID != traceID || ev.Index != i {
			t.Fatalf("event %d: trace %q index %d", i, ev.TraceID, ev.Index)
		}
		if ev != batch[i] {
			t.Fatalf("event %d: stream %+v, batch %+v", i, ev, batch[i])
		}
	}
}

// TestStreamSpecValidation pins the stream-only field rules.
func TestStreamSpecValidation(t *testing.T) {
	s := &CampaignSpec{Kind: KindStream}
	if err := s.Normalize(); err != nil {
		t.Fatalf("minimal stream spec rejected: %v", err)
	}
	if s.Encryptions != 1 {
		t.Errorf("stream encryptions default = %d, want 1", s.Encryptions)
	}
	for _, bad := range []*CampaignSpec{
		{Kind: KindAttack, TargetBikz: 10},
		{Kind: KindAttack, ChunkSamples: 64},
		{Kind: KindDiagnose, VerifyBatch: true},
		{Kind: KindStream, TargetBikz: -1},
		{Kind: KindStream, ChunkSamples: -1},
		{Kind: KindStream, ChunkSamples: maxChunkSamples + 1},
	} {
		if err := bad.Normalize(); err == nil {
			t.Errorf("spec %+v accepted, want error", bad)
		}
	}
	if err := (&CampaignSpec{Kind: KindStream, ChunkSamples: maxChunkSamples}).Normalize(); err != nil {
		t.Errorf("chunk_samples at the limit rejected: %v", err)
	}
	// A 1<<33-sample chunk would make the worker's first window a 64 GiB
	// slice. On 32-bit platforms the decode itself refuses it.
	var huge CampaignSpec
	if err := json.Unmarshal([]byte(`{"kind": "stream", "chunk_samples": 8589934592}`), &huge); err == nil {
		if err := huge.Normalize(); err == nil {
			t.Errorf("chunk_samples 1<<33 accepted")
		}
	}
}
