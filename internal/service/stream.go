package service

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"reveal/internal/bfv"
	"reveal/internal/core"
	"reveal/internal/obs"
	"reveal/internal/trace"
)

// defaultStreamChunkSamples is the RVTS replay chunk size when the spec
// does not set one.
const defaultStreamChunkSamples = 4096

// StreamRunSummary is the outcome of one streamed encryption.
type StreamRunSummary struct {
	Run        int     `json:"run"`
	Classified int     `json:"classified"`
	EarlyExit  bool    `json:"early_exit"`
	ValueAcc   float64 `json:"value_acc"`
	SignAcc    float64 `json:"sign_acc"`
	// HintedBikz is the DBDD estimate at the verdict (0 without a target).
	HintedBikz float64 `json:"hinted_bikz,omitempty"`
	// IngestBytes counts the RVTS wire bytes this run consumed; on an
	// early exit it stops short of the full trace encoding.
	IngestBytes int64 `json:"ingest_bytes"`
	// TTFHSeconds / TTVSeconds are the run's time-to-first-hint and
	// time-to-verdict latencies.
	TTFHSeconds float64 `json:"ttfh_seconds"`
	TTVSeconds  float64 `json:"ttv_seconds"`
	// DigestsMatch is only meaningful under verify_batch: whether the
	// stream result digests identical to the batch result's matching
	// prefix.
	DigestsMatch bool `json:"digests_match"`
}

// StreamCampaignResult is the result payload of a "stream" campaign.
type StreamCampaignResult struct {
	Kind        string `json:"kind"`
	Seed        uint64 `json:"seed"`
	TemplateKey string `json:"template_key"`
	CacheHit    bool   `json:"cache_hit"`
	Encryptions int    `json:"encryptions"`
	// ClassifiedTotal / CoefficientsTotal compare how many coefficients
	// were actually classified against the full workload n×encryptions —
	// strictly smaller when early exit fired.
	ClassifiedTotal   int `json:"classified_total"`
	CoefficientsTotal int `json:"coefficients_total"`
	// EarlyExitRuns counts runs that stopped before the full trace.
	EarlyExitRuns int `json:"early_exit_runs"`
	// DigestsMatch is true when verify_batch was set and every run's
	// stream digest matched the batch prefix digest (false whenever
	// verify_batch is off).
	DigestsMatch bool    `json:"digests_match"`
	ValueAcc     float64 `json:"value_acc"`
	SignAcc      float64 `json:"sign_acc"`
	MeanMargin   float64 `json:"mean_margin"`
	// IngestBytes totals the RVTS wire bytes consumed across all runs
	// (also exported as reveal_stream_ingest_bytes_total).
	IngestBytes int64 `json:"ingest_bytes"`
	// MeanTTFHSeconds / MeanTTVSeconds average the per-run latencies.
	MeanTTFHSeconds float64 `json:"mean_ttfh_seconds"`
	MeanTTVSeconds  float64 `json:"mean_ttv_seconds"`
	// BaselineBikz / TargetBikz / HintedBikz describe the early-exit
	// criterion (zero without a target); HintedBikz is the last run's
	// verdict estimate.
	BaselineBikz   float64            `json:"bikz_baseline,omitempty"`
	TargetBikz     float64            `json:"bikz_target,omitempty"`
	HintedBikz     float64            `json:"bikz_with_hints,omitempty"`
	ProfileSeconds float64            `json:"profile_seconds"`
	StreamSeconds  float64            `json:"stream_seconds"`
	Runs           []StreamRunSummary `json:"runs"`
	ElapsedMS      int64              `json:"elapsed_ms"`
}

// runStream executes a "stream" campaign: each encryption's e2 trace is
// serialized to the RVTS wire format and replayed chunk by chunk through
// the streaming engine, so the job exercises exactly what a live
// acquisition feed would.
func (r *Runner) runStream(ctx context.Context, spec *CampaignSpec, coord Coordinator, worker string) (*StreamCampaignResult, error) {
	chunk := spec.ChunkSamples
	if chunk == 0 {
		chunk = defaultStreamChunkSamples
	}
	res := &StreamCampaignResult{
		Kind: spec.Kind, Seed: spec.Seed, Encryptions: spec.Encryptions,
		TargetBikz: spec.TargetBikz, DigestsMatch: spec.VerifyBatch,
	}
	var ttfhSum, ttvSum float64
	c, err := r.runCampaign(ctx, spec, coord, worker, func(c *campaign, run int, cap *core.EncryptionCapture) error {
		streamRes, verdict, ingested, err := streamOneTrace(ctx, c.cls, c.params, spec, cap.TraceE2, chunk)
		if err != nil {
			return fmt.Errorf("service: streaming encryption %d: %w", run, err)
		}
		core.EmitCoeffEvents(ctx, "e2", streamRes, cap.Truth.E2)
		rs := StreamRunSummary{
			Run: run, Classified: verdict.Classified, EarlyExit: verdict.EarlyExit,
			HintedBikz: verdict.HintedBikz, IngestBytes: ingested,
			TTFHSeconds: verdict.TimeToFirstHint.Seconds(),
			TTVSeconds:  verdict.TimeToVerdict.Seconds(),
		}
		if rs.ValueAcc, rs.SignAcc, err = streamRes.Accuracy(cap.Truth.E2[:verdict.Classified]); err != nil {
			return err
		}
		if spec.VerifyBatch {
			match, err := c.cls.MatchesBatchPrefix(ctx, cap.TraceE2, c.params.N, streamRes)
			if err != nil {
				return fmt.Errorf("service: batch verification of encryption %d: %w", run, err)
			}
			rs.DigestsMatch = match
			res.DigestsMatch = res.DigestsMatch && match
		}
		res.Runs = append(res.Runs, rs)
		if verdict.EarlyExit {
			res.EarlyExitRuns++
		}
		res.IngestBytes += ingested
		res.BaselineBikz = verdict.BaselineBikz
		res.HintedBikz = verdict.HintedBikz
		ttfhSum += rs.TTFHSeconds
		ttvSum += rs.TTVSeconds
		c.score(streamRes, cap.Truth.E2)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.TemplateKey, res.CacheHit = c.key, c.hit
	res.ClassifiedTotal, res.CoefficientsTotal = c.total, c.params.N*spec.Encryptions
	res.ValueAcc, res.SignAcc, res.MeanMargin = c.accuracy()
	if n := float64(len(res.Runs)); n > 0 {
		res.MeanTTFHSeconds, res.MeanTTVSeconds = ttfhSum/n, ttvSum/n
	}
	res.ProfileSeconds, res.StreamSeconds, res.ElapsedMS = c.seconds()
	obs.LogCtx(ctx).Info("stream campaign finished",
		"seed", spec.Seed, "encryptions", spec.Encryptions,
		"classified", res.ClassifiedTotal, "of", res.CoefficientsTotal,
		"early_exit_runs", res.EarlyExitRuns, "digests_match", res.DigestsMatch,
		"ingest_bytes", res.IngestBytes, "cache_hit", res.CacheHit)
	return res, nil
}

// streamOneTrace serializes one trace to the RVTS wire format and replays
// it through a StreamAttack in chunkSamples chunks, stopping the feed the
// moment the attack early-exits. Returns the banked result, the verdict,
// and the wire bytes consumed (counted into
// reveal_stream_ingest_bytes_total).
func streamOneTrace(ctx context.Context, cls *core.CoefficientClassifier, params *bfv.Parameters,
	spec *CampaignSpec, tr trace.Trace, chunkSamples int) (*core.AttackResult, *core.StreamVerdict, int64, error) {
	var wire bytes.Buffer
	if err := trace.WriteSet(&wire, &trace.Set{Traces: []trace.Trace{tr}, Labels: []int{0}}); err != nil {
		return nil, nil, 0, err
	}
	reader, err := trace.NewStreamReader(bytes.NewReader(wire.Bytes()))
	if err != nil {
		return nil, nil, 0, err
	}
	sa, err := core.NewStreamAttackCtx(ctx, cls, core.StreamAttackOptions{
		Coefficients: params.N,
		TargetBikz:   spec.TargetBikz,
		Params:       params,
	})
	if err != nil {
		return nil, nil, 0, err
	}
	defer sa.Close()
	if _, _, err := reader.NextTrace(); err != nil {
		return nil, nil, 0, err
	}
	for !sa.EarlyExited() {
		n, err := reader.ReadChunk(sa.Window(chunkSamples))
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, 0, err
		}
		if err := sa.Commit(n); err != nil {
			return nil, nil, 0, err
		}
	}
	ingested := reader.BytesRead()
	obs.Global().Registry().Counter(core.MetricStreamIngestBytes).Add(ingested)
	res, verdict, err := sa.Finish()
	if err != nil {
		return nil, nil, 0, err
	}
	return res, verdict, ingested, nil
}
