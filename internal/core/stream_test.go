package core

// Streaming attack engine: byte-equality with the batch path over complete
// traces (the determinism contract), early exit on a target bikz before
// the trace is fully consumed, and chunk-size independence of the banked
// prefix (same prefix ⇒ same hints, whatever the chunking), which also
// holds for any split of the closed segments into classification runs.

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"reveal/internal/bfv"
	"reveal/internal/sampler"
	"reveal/internal/trace"
)

// streamFixtureData is one profiled device and one captured encryption,
// built once per test binary.
type streamFixtureData struct {
	once   sync.Once
	params *bfv.Parameters
	cls    *CoefficientClassifier
	cap    *EncryptionCapture
	err    error
}

var streamFixture, lowNoiseStreamFixture streamFixtureData

// streamTestFixture profiles a small deterministic device once and
// captures one encryption for every streaming test to attack. n = 128
// rather than the selftest's 64 so the baseline bikz (≈37) sits well
// above the estimator's floor and hints produce a measurable drop the
// early-exit tests can aim between.
func streamTestFixture(t *testing.T) (*bfv.Parameters, *CoefficientClassifier, *EncryptionCapture) {
	return streamFixture.load(t, false)
}

// lowNoiseStreamTestFixture is streamTestFixture on the low-noise device
// with the high-accuracy classifier (28 POIs per template).
func lowNoiseStreamTestFixture(t *testing.T) (*bfv.Parameters, *CoefficientClassifier, *EncryptionCapture) {
	return lowNoiseStreamFixture.load(t, true)
}

func (fx *streamFixtureData) load(t *testing.T, lowNoise bool) (*bfv.Parameters, *CoefficientClassifier, *EncryptionCapture) {
	t.Helper()
	fx.once.Do(func() {
		params, err := bfv.NewParameters(128, []uint64{12289}, 16,
			sampler.DefaultSigma, sampler.DefaultMaxDeviation)
		if err != nil {
			fx.err = err
			return
		}
		dev, opts := NewDevice(7), DefaultProfileOptions()
		opts.TracesPerValue = 60
		opts.Templates.POICount = 24
		opts.Templates.MinSpacing = 1
		if lowNoise {
			dev, opts = NewLowNoiseDevice(7), HighAccuracyProfileOptions()
		}
		opts.Q = params.Moduli[0]
		cls, err := Profile(dev, opts)
		if err != nil {
			fx.err = err
			return
		}
		prng := sampler.NewXoshiro256(7 ^ 0x9E3779B97F4A7C15)
		kg := bfv.NewKeyGenerator(params, prng)
		sk := kg.GenSecretKey()
		pk := kg.GenPublicKey(sk)
		enc := bfv.NewEncryptor(params, pk, prng)
		pt := params.NewPlaintext()
		for i := range pt.Coeffs {
			pt.Coeffs[i] = sampler.Uint64Below(prng, params.T)
		}
		cap, err := CaptureEncryption(dev, params, enc, pt)
		if err != nil {
			fx.err = err
			return
		}
		fx.params, fx.cls, fx.cap = params, cls, cap
	})
	if fx.err != nil {
		t.Fatalf("stream fixture: %v", fx.err)
	}
	return fx.params, fx.cls, fx.cap
}

// batchE2 runs the batch path on the capture's e2 trace: segment n+1 peaks
// (sentinel included), classify the first n — exactly what
// AttackWithOptions does per polynomial.
func batchE2(t *testing.T, params *bfv.Parameters, cls *CoefficientClassifier, cap *EncryptionCapture) *AttackResult {
	t.Helper()
	sg := trace.NewSegmenter(params.N + 1)
	segs, err := sg.Segment(cap.TraceE2, params.N+1, 8)
	if err != nil {
		t.Fatalf("batch segmentation: %v", err)
	}
	res, err := cls.AttackSegmentsCtx(context.Background(), segs[:params.N])
	if err != nil {
		t.Fatalf("batch attack: %v", err)
	}
	return res
}

// streamE2 runs the streaming path over the e2 trace in fixed-size chunks,
// stopping the feed as soon as the attack early-exits.
func streamE2(t *testing.T, cls *CoefficientClassifier, opts StreamAttackOptions, tr trace.Trace, chunk int) (*AttackResult, *StreamVerdict) {
	t.Helper()
	sa, err := NewStreamAttack(cls, opts)
	if err != nil {
		t.Fatalf("NewStreamAttack: %v", err)
	}
	for off := 0; off < len(tr) && !sa.EarlyExited(); off += chunk {
		end := off + chunk
		if end > len(tr) {
			end = len(tr)
		}
		if err := sa.Feed(tr[off:end]); err != nil {
			t.Fatalf("Feed at %d: %v", off, err)
		}
	}
	res, verdict, err := sa.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return res, verdict
}

func assertResultsBitIdentical(t *testing.T, want, got *AttackResult) {
	t.Helper()
	if len(got.Values) != len(want.Values) {
		t.Fatalf("classified %d coefficients, want %d", len(got.Values), len(want.Values))
	}
	for i := range want.Values {
		if got.Values[i] != want.Values[i] || got.Signs[i] != want.Signs[i] {
			t.Fatalf("coefficient %d: value/sign %d/%d, want %d/%d",
				i, got.Values[i], got.Signs[i], want.Values[i], want.Signs[i])
		}
		assertPosteriorBits(t, i, posteriorMap(want.Probs[i]), got.Probs[i])
	}
	wd, err := want.Digest()
	if err != nil {
		t.Fatal(err)
	}
	gd, err := got.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if wd != gd {
		t.Fatalf("digests differ despite bit-identical fields: %s vs %s", wd, gd)
	}
}

func TestStreamAttackMatchesBatchByteForByte(t *testing.T) {
	params, cls, cap := streamTestFixture(t)
	want := batchE2(t, params, cls, cap)
	for _, chunk := range []int{33, 256, 4096, len(cap.TraceE2) + 1} {
		got, verdict := streamE2(t, cls, StreamAttackOptions{Coefficients: params.N}, cap.TraceE2, chunk)
		assertResultsBitIdentical(t, want, got)
		if verdict.EarlyExit {
			t.Fatalf("chunk %d: early exit without a target bikz", chunk)
		}
		if verdict.Classified != params.N {
			t.Fatalf("chunk %d: classified %d, want %d", chunk, verdict.Classified, params.N)
		}
		if verdict.SamplesIngested != len(cap.TraceE2) {
			t.Fatalf("chunk %d: ingested %d samples, want %d", chunk, verdict.SamplesIngested, len(cap.TraceE2))
		}
		for i, post := range got.Probs {
			if len(post.P) == 0 {
				t.Fatalf("chunk %d: coefficient %d banked an empty posterior", chunk, i)
			}
		}
	}
}

// streamEarlyExitTarget picks a target bikz halfway between the baseline
// and the full-hint estimate, so the stream must exit strictly inside the
// trace.
func streamEarlyExitTarget(t *testing.T, params *bfv.Parameters, full *AttackResult) float64 {
	t.Helper()
	loss, err := EstimateFullHints(params, full)
	if err != nil {
		t.Fatalf("full-hint estimate: %v", err)
	}
	if loss.HintedBikz >= loss.BaselineBikz {
		t.Fatalf("hints did not reduce bikz (%.2f vs %.2f) — fixture too noisy",
			loss.HintedBikz, loss.BaselineBikz)
	}
	return (loss.BaselineBikz + loss.HintedBikz) / 2
}

func TestStreamAttackEarlyExitStopsBeforeTraceEnd(t *testing.T) {
	params, cls, cap := streamTestFixture(t)
	full := batchE2(t, params, cls, cap)
	target := streamEarlyExitTarget(t, params, full)
	opts := StreamAttackOptions{Coefficients: params.N, TargetBikz: target, Params: params}
	got, verdict := streamE2(t, cls, opts, cap.TraceE2, 256)
	if !verdict.EarlyExit {
		t.Fatalf("no early exit at target %.2f (hinted %.2f)", target, verdict.HintedBikz)
	}
	if verdict.Classified >= params.N {
		t.Fatalf("early exit classified all %d coefficients", verdict.Classified)
	}
	if verdict.SamplesIngested >= len(cap.TraceE2) {
		t.Fatalf("early exit consumed the whole trace (%d samples)", verdict.SamplesIngested)
	}
	if verdict.HintedBikz > target || verdict.HintedBikz <= 0 {
		t.Fatalf("verdict bikz %.2f not at or below target %.2f", verdict.HintedBikz, target)
	}
	if verdict.BaselineBikz <= target {
		t.Fatalf("baseline %.2f not above target %.2f", verdict.BaselineBikz, target)
	}
	// The banked prefix is exactly the batch result's prefix.
	assertResultsBitIdentical(t, full.Prefix(verdict.Classified), got)
	// MatchesBatchPrefix agrees, and notices a single changed value.
	ctx := context.Background()
	if ok, err := cls.MatchesBatchPrefix(ctx, cap.TraceE2, params.N, got); err != nil || !ok {
		t.Fatalf("MatchesBatchPrefix = %v, %v; want true", ok, err)
	}
	bad := *got
	bad.Values = append([]int(nil), got.Values...)
	bad.Values[0]++
	if ok, err := cls.MatchesBatchPrefix(ctx, cap.TraceE2, params.N, &bad); err != nil || ok {
		t.Fatalf("perturbed prefix: MatchesBatchPrefix = %v, %v; want false", ok, err)
	}
}

func TestStreamAttackEarlyExitDeterministicAcrossChunkSizes(t *testing.T) {
	params, cls, cap := streamTestFixture(t)
	full := batchE2(t, params, cls, cap)
	target := streamEarlyExitTarget(t, params, full)
	opts := StreamAttackOptions{Coefficients: params.N, TargetBikz: target, Params: params}
	var refClassified int
	var refDigest string
	for i, chunk := range []int{64, 301, 1024, len(cap.TraceE2)} {
		got, verdict := streamE2(t, cls, opts, cap.TraceE2, chunk)
		digest, err := got.Digest()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			refClassified, refDigest = verdict.Classified, digest
			continue
		}
		if verdict.Classified != refClassified {
			t.Fatalf("chunk %d: exit after %d coefficients, chunk 64 exited after %d",
				chunk, verdict.Classified, refClassified)
		}
		if digest != refDigest {
			t.Fatalf("chunk %d: banked prefix digest differs", chunk)
		}
	}
}

func TestStreamAttackValidation(t *testing.T) {
	params, cls, _ := streamTestFixture(t)
	if _, err := NewStreamAttack(cls, StreamAttackOptions{Coefficients: 0}); err == nil {
		t.Fatal("zero coefficients accepted")
	}
	if _, err := NewStreamAttack(cls, StreamAttackOptions{Coefficients: params.N, TargetBikz: 10}); err == nil {
		t.Fatal("target bikz without params accepted")
	}
	if _, err := NewStreamAttack(cls, StreamAttackOptions{Coefficients: params.N, TargetBikz: 1e9, Params: params}); err == nil {
		t.Fatal("target bikz above baseline accepted")
	}
}

// TestStreamAttackRunsMatchSingleSegmentRuns pins the classification runs
// of StreamAttack.onSegments. Fed one sample per commit, a stream closes
// at most one segment per commit, so every run is one segment; longer
// chunks close many at once and classify them in runs of up to 16 that
// end on the bikz-check stride. Both must reach the same verdict — the
// exit coefficient, the early exit and the estimate, by bits — and bank
// the same posteriors, by bits, whatever the stride, with and without a
// target.
func TestStreamAttackRunsMatchSingleSegmentRuns(t *testing.T) {
	for _, fx := range []struct {
		name string
		load func(*testing.T) (*bfv.Parameters, *CoefficientClassifier, *EncryptionCapture)
	}{{"default", streamTestFixture}, {"low-noise", lowNoiseStreamTestFixture}} {
		params, cls, cap := fx.load(t)
		full := batchE2(t, params, cls, cap)
		target := streamEarlyExitTarget(t, params, full)
		for _, every := range []int{1, 3, 16, 17, 100} {
			for _, target := range []float64{0, target} {
				t.Run(fmt.Sprintf("%s/every=%d/target=%.2f", fx.name, every, target), func(t *testing.T) {
					opts := StreamAttackOptions{Coefficients: params.N, TargetBikz: target, checkEvery: every, Params: params}
					ref, refVerdict := streamE2(t, cls, opts, cap.TraceE2, 1)
					assertResultsBitIdentical(t, full.Prefix(refVerdict.Classified), ref)
					for _, chunk := range []int{37, 4096, len(cap.TraceE2)} {
						got, verdict := streamE2(t, cls, opts, cap.TraceE2, chunk)
						if verdict.Classified != refVerdict.Classified || verdict.EarlyExit != refVerdict.EarlyExit ||
							math.Float64bits(verdict.HintedBikz) != math.Float64bits(refVerdict.HintedBikz) {
							t.Fatalf("chunk %d: verdict (%d, %v, %v), one-sample commits gave (%d, %v, %v)",
								chunk, verdict.Classified, verdict.EarlyExit, verdict.HintedBikz,
								refVerdict.Classified, refVerdict.EarlyExit, refVerdict.HintedBikz)
						}
						assertResultsBitIdentical(t, ref, got)
					}
				})
			}
		}
	}
}
