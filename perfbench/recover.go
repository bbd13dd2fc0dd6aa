package main

import (
	"context"
	"fmt"
	"time"

	"reveal/internal/bfv"
	"reveal/internal/core"
	"reveal/internal/sampler"
)

// Recover workload knobs: the repair search depth, a trial budget that
// keeps a failing operation under about a second, the candidate inputs a
// set-up draws, and the residual search a candidate may need to be kept.
const (
	recoverDepth       = 16
	recoverTrials      = 2000
	recoverCandidates  = 16
	recoverScreenLimit = 64
	// recoverDevice seeds the profiled device. It is part of the workload,
	// not of its inputs: every seed attacks the same templates, so the
	// seeds vary the plaintexts, keys and measurement noise only.
	recoverDevice = 1
)

// recoverWorkload is the paper's payoff: capture one encryption on a
// low-noise device, classify both error polynomials from their single
// traces, repair the residual errors and recover the plaintext bit for bit.
var recoverWorkload = &workload{
	name:       "recover",
	setup:      setupRecover,
	selfLayers: []string{"rv32.capture_ms", "bfv.encrypt_ms", "trace.segment_ms", "sca.classify_ms", "core.recover_ms"},
}

// recoverInput is one operation's input: the measurement-noise seed of the
// attacked device (same leakage model as the profiled one, fresh noise),
// the encryption randomness and the plaintext. Replaying an input replays
// the operation exactly.
type recoverInput struct {
	noiseSeed, encSeed uint64
	pt                 *bfv.Plaintext
}

type recoverInstance struct {
	cls    *core.CoefficientClassifier
	params *bfv.Parameters
	pk     *bfv.PublicKey
	inputs []recoverInput

	capture, segment, classify stage
}

// setupRecover profiles the low-noise device and draws the inputs. Not
// every single trace is recoverable: of recoverCandidates inputs, set-up
// keeps those the attack recovers bit for bit within recoverScreenLimit
// repair trials, so the measured operations never fail on the parent and a
// change that breaks recovery shows as failures. Screening a fixed number
// of candidates keeps the set-up work the same for every seed.
func setupRecover(seed uint64) (instance, error) {
	s := mix(seed, 0x7265636f766572)
	cls, err := core.Profile(core.NewLowNoiseDevice(recoverDevice), core.HighAccuracyProfileOptions())
	if err != nil {
		return nil, err
	}
	params := bfv.PaperParameters()
	kg := bfv.NewKeyGenerator(params, sampler.NewXoshiro256(mix(s, 1)))
	r := &recoverInstance{
		cls: cls, params: params, pk: kg.GenPublicKey(kg.GenSecretKey()),
		capture:  newStage(programStages, "capture"),
		segment:  newStage(programStages, "segment"),
		classify: newStage(programStages, "classify"),
	}
	for k := uint64(0); k < recoverCandidates; k++ {
		in := recoverInput{
			noiseSeed: mix(s, 3*k+2), encSeed: mix(s, 3*k+3),
			pt: seededPlaintext(params, mix(s, 3*k+4)),
		}
		if r.run(in, false, recoverScreenLimit).err == nil {
			r.inputs = append(r.inputs, in)
		}
	}
	if len(r.inputs) < recoverCandidates/4 {
		return nil, fmt.Errorf("only %d of %d candidate inputs recovered within %d trials",
			len(r.inputs), recoverCandidates, recoverScreenLimit)
	}
	return r, nil
}

func (r *recoverInstance) close() {}

func (r *recoverInstance) derive(sum map[string]float64, n int) map[string]float64 {
	return map[string]float64{
		"sca.coeffs_per_s":             rate(sum["sca.coeffs"], sum["sca.classify_ms"]),
		"core.recover_first_try_ratio": sum["core.recover_first_try"] / float64(n),
	}
}

func (r *recoverInstance) op(i int, traced bool) opResult {
	return r.run(r.inputs[i%len(r.inputs)], traced, recoverTrials)
}

// run performs one operation on in with the given repair trial budget.
func (r *recoverInstance) run(in recoverInput, traced bool, maxTrials int) opResult {
	dev := core.NewLowNoiseDevice(in.noiseSeed)
	enc := bfv.NewEncryptor(r.params, r.pk, sampler.NewXoshiro256(in.encSeed))
	ctx := context.Background()
	setProgramTracing(traced)
	var layers map[string]float64
	var capMark, segMark, clsMark stageMark
	if traced {
		layers = map[string]float64{}
		capMark, segMark, clsMark = r.capture.mark(), r.segment.mark(), r.classify.mark()
	}

	t0 := time.Now()
	sp := startSpan(traced)
	cap, err := core.CaptureEncryptionCtx(ctx, dev, r.params, enc, in.pt)
	sp.end(layers, "core.capture_ms")
	if err != nil {
		return opResult{latency: time.Since(t0), err: err}
	}
	sp = startSpan(traced)
	out, err := r.cls.AttackWithOptions(ctx, cap, r.params.N, core.AttackOptions{Workers: 1})
	sp.end(layers, "sca.attack_ms")
	if err != nil {
		return opResult{latency: time.Since(t0), err: err}
	}
	hinted := time.Since(t0)
	sp = startSpan(traced)
	got, _, trials, err := core.RepairAndRecover(r.params, r.pk, cap.Ciphertext, out.E2, recoverDepth, maxTrials)
	sp.end(layers, "core.recover_ms")
	res := opResult{latency: time.Since(t0), ttfh: hinted, layers: layers}

	for _, p := range []struct {
		values []int
		truth  []int64
	}{{out.E1.Values, cap.Truth.E1}, {out.E2.Values, cap.Truth.E2}} {
		for k, v := range p.values {
			res.classified++
			if int64(v) == p.truth[k] {
				res.correct++
			}
		}
	}
	switch {
	case err != nil:
		res.err = err
	case !equalCoeffs(got.Coeffs, in.pt.Coeffs):
		res.err = fmt.Errorf("recovered plaintext differs from the encrypted one")
	}
	if traced {
		var capRuns, segs, coeffs int64
		layers["rv32.capture_ms"], capRuns, _ = r.capture.since(capMark)
		layers["trace.segment_ms"], _, segs = r.segment.since(segMark)
		layers["sca.classify_ms"], _, coeffs = r.classify.since(clsMark)
		if capRuns != 2 {
			res.err = fmt.Errorf("%d capture spans, want 2 (another goroutine is capturing)", capRuns)
		}
		layers["bfv.encrypt_ms"] = layers["core.capture_ms"] - layers["rv32.capture_ms"]
		layers["trace.segments"] = float64(segs)
		layers["sca.coeffs"] = float64(coeffs)
		layers["rv32.samples"] = float64(len(cap.TraceE1) + len(cap.TraceE2))
		layers["core.recover_trials"] = float64(trials)
		if trials == 1 {
			layers["core.recover_first_try"] = 1
		}
	}
	return res
}

// seededPlaintext draws a uniform plaintext from seed.
func seededPlaintext(params *bfv.Parameters, seed uint64) *bfv.Plaintext {
	prng := sampler.NewXoshiro256(seed)
	pt := params.NewPlaintext()
	for k := range pt.Coeffs {
		pt.Coeffs[k] = sampler.Uint64Below(prng, params.T)
	}
	return pt
}

func equalCoeffs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k] != b[k] {
			return false
		}
	}
	return true
}
