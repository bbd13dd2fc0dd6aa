package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"reveal/internal/bfv"
	"reveal/internal/obs"
	"reveal/internal/sampler"
)

// Selftest is the end-to-end replay-determinism gate: it runs the full
// profile→attack→hints pipeline twice at a small deterministic scale —
// once with one classification worker, once with several goroutines
// claiming coefficients from AttackSegmentsParallel's shared counter —
// each under a fresh observability recorder, and requires every
// deterministic artifact (recovered coefficients, posterior tables,
// accuracies, DBDD hardness, and the coeffs.jsonl journal) to be
// byte-identical. The daemon runs this at startup and
// `revealctl selftest` exposes it on the command line; running the command
// twice in fresh processes and comparing the printed digest extends the
// gate across process boundaries.

// SelftestReport summarizes one gate execution.
type SelftestReport struct {
	Seed           uint64  `json:"seed"`
	Workers        int     `json:"workers"`
	SerialDigest   string  `json:"serial_digest"`
	ParallelDigest string  `json:"parallel_digest"`
	Match          bool    `json:"match"`
	ValueAccuracy  float64 `json:"value_accuracy_e2"`
	SignAccuracy   float64 `json:"sign_accuracy_e2"`
	BaselineBikz   float64 `json:"baseline_bikz"`
	HintedBikz     float64 `json:"hinted_bikz"`
}

// Digest is the single fingerprint a fresh-process comparison checks: it
// covers both pipeline digests, so two `revealctl selftest` invocations
// printing the same value proves cross-process replay determinism.
func (r *SelftestReport) Digest() string {
	sum := sha256.Sum256([]byte(r.SerialDigest + ":" + r.ParallelDigest))
	return hex.EncodeToString(sum[:])
}

// selftestSummary is the canonical JSON payload a pipeline run is digested
// over. Only deterministic fields appear — no timings, no throughput.
type selftestSummary struct {
	ValuesE1 []int       `json:"values_e1"`
	SignsE1  []int       `json:"signs_e1"`
	ProbsE1  []Posterior `json:"probs_e1"`
	ValuesE2 []int       `json:"values_e2"`
	SignsE2  []int       `json:"signs_e2"`
	ProbsE2  []Posterior `json:"probs_e2"`

	ValueAccuracy float64 `json:"value_accuracy_e2"`
	SignAccuracy  float64 `json:"sign_accuracy_e2"`
	BaselineBikz  float64 `json:"baseline_bikz"`
	HintedBikz    float64 `json:"hinted_bikz"`

	// CoeffsJSONL is the hex SHA-256 of the coeffs.jsonl bytes the
	// recorder would write for this run.
	CoeffsJSONL string `json:"coeffs_jsonl_sha256"`
}

// selftestParams is the small deterministic configuration: n=64, the
// 14-bit NTT prime 12289, t=16 — large enough to exercise segmentation,
// classification, posterior combination and hint integration, small enough
// to finish in a couple of seconds.
func selftestParams() (*bfv.Parameters, error) {
	return bfv.NewParameters(64, []uint64{12289}, 16,
		sampler.DefaultSigma, sampler.DefaultMaxDeviation)
}

// runSelftestPipeline executes one full pipeline pass with the given
// worker count under a fresh recorder and returns the canonical summary
// plus its digest.
func runSelftestPipeline(ctx context.Context, seed uint64, workers int) (*selftestSummary, string, error) {
	prev := obs.Global()
	rec := obs.New(obs.Options{CoeffCapacity: 1024})
	obs.SetGlobal(rec)
	defer obs.SetGlobal(prev)

	params, err := selftestParams()
	if err != nil {
		return nil, "", err
	}

	dev := NewDevice(seed)
	opts := DefaultProfileOptions()
	opts.Q = params.Moduli[0]
	opts.TracesPerValue = 60
	opts.Templates.POICount = 24
	opts.Templates.MinSpacing = 1
	cls, err := ProfileCtx(ctx, dev, opts)
	if err != nil {
		return nil, "", fmt.Errorf("core: selftest profiling: %w", err)
	}

	prng := sampler.NewXoshiro256(seed ^ 0x9E3779B97F4A7C15)
	kg := bfv.NewKeyGenerator(params, prng)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	enc := bfv.NewEncryptor(params, pk, prng)
	pt := params.NewPlaintext()
	for i := range pt.Coeffs {
		pt.Coeffs[i] = sampler.Uint64Below(prng, params.T)
	}
	capture, err := CaptureEncryption(dev, params, enc, pt)
	if err != nil {
		return nil, "", fmt.Errorf("core: selftest capture: %w", err)
	}

	out, err := cls.AttackWithOptions(ctx, capture, params.N, AttackOptions{Workers: workers})
	if err != nil {
		return nil, "", fmt.Errorf("core: selftest attack (workers=%d): %w", workers, err)
	}
	EmitOutcomeEvents(ctx, out, capture)

	valueAcc, signAcc, err := out.E2.Accuracy(capture.Truth.E2)
	if err != nil {
		return nil, "", err
	}
	loss, err := EstimateFullHints(params, out.E2)
	if err != nil {
		return nil, "", fmt.Errorf("core: selftest hint estimate: %w", err)
	}

	var coeffs bytes.Buffer
	if err := rec.WriteCoeffsJSONL(&coeffs); err != nil {
		return nil, "", err
	}
	coeffsSum := sha256.Sum256(coeffs.Bytes())

	s := &selftestSummary{
		ValuesE1:      out.E1.Values,
		SignsE1:       out.E1.Signs,
		ProbsE1:       out.E1.Probs,
		ValuesE2:      out.E2.Values,
		SignsE2:       out.E2.Signs,
		ProbsE2:       out.E2.Probs,
		ValueAccuracy: valueAcc,
		SignAccuracy:  signAcc,
		BaselineBikz:  loss.BaselineBikz,
		HintedBikz:    loss.HintedBikz,
		CoeffsJSONL:   hex.EncodeToString(coeffsSum[:]),
	}
	data, err := json.Marshal(s)
	if err != nil {
		return nil, "", err
	}
	sum := sha256.Sum256(data)
	return s, hex.EncodeToString(sum[:]), nil
}

// Selftest runs the replay-determinism gate. workers is the
// classification worker count of the second pass (values < 2 use 4); the
// first pass uses one. A non-nil error either means the pipeline failed
// outright or — the case the gate exists for — the one-worker ("serial")
// and multi-worker ("parallel") executions diverged; the report is
// returned in both cases when available.
func Selftest(ctx context.Context, seed uint64, workers int) (*SelftestReport, error) {
	if workers < 2 {
		workers = 4
	}
	serial, serialDigest, err := runSelftestPipeline(ctx, seed, 1)
	if err != nil {
		return nil, err
	}
	_, parallelDigest, err := runSelftestPipeline(ctx, seed, workers)
	if err != nil {
		return nil, err
	}
	report := &SelftestReport{
		Seed:           seed,
		Workers:        workers,
		SerialDigest:   serialDigest,
		ParallelDigest: parallelDigest,
		Match:          serialDigest == parallelDigest,
		ValueAccuracy:  serial.ValueAccuracy,
		SignAccuracy:   serial.SignAccuracy,
		BaselineBikz:   serial.BaselineBikz,
		HintedBikz:     serial.HintedBikz,
	}
	if !report.Match {
		return report, fmt.Errorf("core: selftest FAILED: serial digest %s != parallel digest %s (workers=%d)",
			serialDigest, parallelDigest, workers)
	}
	return report, nil
}
