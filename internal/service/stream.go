package service

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"time"

	"reveal/internal/bfv"
	"reveal/internal/core"
	"reveal/internal/obs"
	"reveal/internal/sampler"
	"reveal/internal/sca"
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

// runStream executes a "stream" campaign: the same deterministic capture
// pipeline as runAttack, but each e2 trace is serialized to the RVTS wire
// format and replayed chunk by chunk through the streaming engine, so the
// job exercises exactly what a live acquisition feed would.
func (r *Runner) runStream(ctx context.Context, spec *CampaignSpec) (*StreamCampaignResult, error) {
	start := time.Now()
	cls, key, hit, err := r.classifier(ctx, spec)
	if err != nil {
		return nil, err
	}
	profileElapsed := time.Since(start)
	var attackDev *core.Device
	if spec.LowNoise {
		attackDev = core.NewLowNoiseDevice(spec.Seed ^ attackDeviceSalt)
	} else {
		attackDev = core.NewDevice(spec.Seed ^ attackDeviceSalt)
	}
	params, err := spec.params()
	if err != nil {
		return nil, err
	}
	prng := sampler.NewXoshiro256(spec.Seed ^ 0xABCD)
	kg := bfv.NewKeyGenerator(params, prng)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	enc := bfv.NewEncryptor(params, pk, prng)

	chunk := spec.ChunkSamples
	if chunk == 0 {
		chunk = defaultStreamChunkSamples
	}
	res := &StreamCampaignResult{
		Kind: spec.Kind, Seed: spec.Seed, TemplateKey: key, CacheHit: hit,
		Encryptions: spec.Encryptions, TargetBikz: spec.TargetBikz,
		DigestsMatch: spec.VerifyBatch,
	}
	valOK, signOK := 0, 0
	var marginSum float64
	marginN := 0
	var ttfhSum, ttvSum float64
	for run := 0; run < spec.Encryptions; run++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("service: campaign canceled at encryption %d/%d: %w",
				run, spec.Encryptions, err)
		}
		pt := params.NewPlaintext()
		for i := range pt.Coeffs {
			pt.Coeffs[i] = uint64(i*31+run*7) % params.T
		}
		cap, err := core.CaptureEncryptionCtx(ctx, attackDev, params, enc, pt)
		if err != nil {
			return nil, fmt.Errorf("service: capturing encryption %d: %w", run, err)
		}
		streamRes, verdict, ingested, err := streamOneTrace(ctx, cls, params, spec, cap.TraceE2, chunk)
		if err != nil {
			return nil, fmt.Errorf("service: streaming encryption %d: %w", run, err)
		}
		core.EmitCoeffEvents(ctx, "e2", streamRes, cap.Truth.E2)
		rs := StreamRunSummary{
			Run: run, Classified: verdict.Classified, EarlyExit: verdict.EarlyExit,
			HintedBikz: verdict.HintedBikz, IngestBytes: ingested,
			TTFHSeconds: verdict.TimeToFirstHint.Seconds(),
			TTVSeconds:  verdict.TimeToVerdict.Seconds(),
		}
		if rs.ValueAcc, rs.SignAcc, err = streamRes.Accuracy(cap.Truth.E2[:verdict.Classified]); err != nil {
			return nil, err
		}
		if spec.VerifyBatch {
			match, err := cls.MatchesBatchPrefix(ctx, cap.TraceE2, params.N, streamRes)
			if err != nil {
				return nil, fmt.Errorf("service: batch verification of encryption %d: %w", run, err)
			}
			rs.DigestsMatch = match
			if !match {
				res.DigestsMatch = false
			}
		}
		res.Runs = append(res.Runs, rs)
		res.ClassifiedTotal += verdict.Classified
		res.CoefficientsTotal += params.N
		if verdict.EarlyExit {
			res.EarlyExitRuns++
		}
		res.IngestBytes += ingested
		res.BaselineBikz = verdict.BaselineBikz
		res.HintedBikz = verdict.HintedBikz
		marginSum += verdict.MarginSum
		marginN += verdict.MarginCount
		ttfhSum += rs.TTFHSeconds
		ttvSum += rs.TTVSeconds
		for i, v := range streamRes.Values {
			if int64(v) == cap.Truth.E2[i] {
				valOK++
			}
			if streamRes.Signs[i] == sca.SignOf(int(cap.Truth.E2[i])) {
				signOK++
			}
		}
	}
	if res.ClassifiedTotal > 0 {
		res.ValueAcc = float64(valOK) / float64(res.ClassifiedTotal)
		res.SignAcc = float64(signOK) / float64(res.ClassifiedTotal)
	}
	if marginN > 0 {
		res.MeanMargin = marginSum / float64(marginN)
	}
	if len(res.Runs) > 0 {
		res.MeanTTFHSeconds = ttfhSum / float64(len(res.Runs))
		res.MeanTTVSeconds = ttvSum / float64(len(res.Runs))
	}
	res.ProfileSeconds = profileElapsed.Seconds()
	res.StreamSeconds = time.Since(start).Seconds() - res.ProfileSeconds
	res.ElapsedMS = time.Since(start).Milliseconds()
	obs.LogCtx(ctx).Info("stream campaign finished",
		"seed", spec.Seed, "encryptions", spec.Encryptions,
		"classified", res.ClassifiedTotal, "of", res.CoefficientsTotal,
		"early_exit_runs", res.EarlyExitRuns, "digests_match", res.DigestsMatch,
		"ingest_bytes", res.IngestBytes, "cache_hit", hit)
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
