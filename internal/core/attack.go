package core

import (
	"context"
	"fmt"
	"sync"

	"reveal/internal/bfv"
	"reveal/internal/obs"
	"reveal/internal/sampler"
	"reveal/internal/trace"
)

// EncryptionCapture is one observed encryption: the public ciphertext, the
// two power traces of the Gaussian sampling runs (e1 then e2), and — for
// evaluation only — the ground-truth transcript.
type EncryptionCapture struct {
	Ciphertext *bfv.Ciphertext
	TraceE1    trace.Trace
	TraceE2    trace.Trace

	// Truth is the encryption transcript; the attack never reads it, the
	// evaluation harness does.
	Truth *bfv.EncryptionTranscript
}

// CaptureEncryption performs one BFV encryption and records the power
// traces of both error-polynomial sampling runs on the device — the
// "single power measurement" of the paper (one trace per error polynomial,
// captured within the same encryption).
func CaptureEncryption(dev *Device, params *bfv.Parameters, enc *bfv.Encryptor, pt *bfv.Plaintext) (*EncryptionCapture, error) {
	return CaptureEncryptionCtx(context.Background(), dev, params, enc, pt)
}

// CaptureEncryptionCtx is CaptureEncryption carrying the caller's trace
// identity: the capture span is stamped with the request trace ID from ctx
// (service path), so per-job trace exports include the capture stage.
//
// It reserves the device's next two run numbers, e1's then e2's, before
// either run starts, then renders e1 on a second goroutine while e2
// renders on the caller's. Each trace's noise depends only on its number,
// so both traces equal those of two Capture calls, e1 first. When either
// run fails, both numbers are spent, and e1's error is reported first.
func CaptureEncryptionCtx(ctx context.Context, dev *Device, params *bfv.Parameters, enc *bfv.Encryptor, pt *bfv.Plaintext) (*EncryptionCapture, error) {
	sp := obs.StartSpanCtx(ctx, "capture_encryption")
	sp.AddItems(2) // two sampling traces per encryption (e1, e2)
	defer sp.End()
	ct, tr, err := enc.EncryptWithTranscript(pt)
	if err != nil {
		return nil, err
	}
	// One sentinel iteration is appended so the last real coefficient's
	// segment has the same tail shape as the others (its successor peak
	// exists); the attack discards the sentinel's classification.
	src, err := FirmwareSource(params.N+1, FirmwareModulus(params.Moduli[0]))
	if err != nil {
		return nil, err
	}
	fw, err := AssembleFirmware(src)
	if err != nil {
		return nil, err
	}
	withSentinel := func(vals []int64, metas []sampler.SampleMeta) ([]int64, []sampler.SampleMeta) {
		v := append(append([]int64(nil), vals...), 0)
		m := append(append([]sampler.SampleMeta(nil), metas...), sampler.SampleMeta{})
		return v, m
	}
	v1, m1 := withSentinel(tr.E1, tr.Meta1)
	v2, m2 := withSentinel(tr.E2, tr.Meta2)
	run1, run2 := dev.nextRun(), dev.nextRun()
	var (
		t1   trace.Trace
		err1 error
		wg   sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		t1, err1 = dev.captureRun(run1, fw, v1, m1)
	}()
	t2, err2 := dev.captureRun(run2, fw, v2, m2)
	wg.Wait()
	if err1 != nil {
		return nil, fmt.Errorf("core: capturing e1 sampling: %w", err1)
	}
	if err2 != nil {
		return nil, fmt.Errorf("core: capturing e2 sampling: %w", err2)
	}
	return &EncryptionCapture{Ciphertext: ct, TraceE1: t1, TraceE2: t2, Truth: tr}, nil
}

// AttackOutcome is the result of the full single-trace attack on one
// encryption.
type AttackOutcome struct {
	E1, E2 *AttackResult
}

// AttackOptions tunes one attack execution.
type AttackOptions struct {
	// Workers is how many goroutines classify each error polynomial: the
	// caller plus Workers−1 more, each claiming 16 coefficients at a time
	// (see AttackSegmentsParallel); values <= 1 classify on the calling
	// goroutine alone. Results are byte-identical for every value, so this
	// is purely a throughput knob. The two polynomials are always attacked
	// one after the other, e1 first.
	Workers int
}

// Attack runs the single-trace attack on both error polynomials of a
// captured encryption (each trace contains n real coefficients plus the
// sentinel iteration, which is discarded).
func (c *CoefficientClassifier) Attack(cap *EncryptionCapture, n int) (*AttackOutcome, error) {
	return c.AttackWithOptions(context.Background(), cap, n, AttackOptions{})
}

// AttackWithOptions is Attack with cancellation and a worker count: each
// polynomial is segmented, then classified by AttackSegmentsParallel,
// which checks ctx once per claim.
func (c *CoefficientClassifier) AttackWithOptions(ctx context.Context, cap *EncryptionCapture, n int, opts AttackOptions) (*AttackOutcome, error) {
	sp := obs.StartSpanCtx(ctx, "attack")
	sp.AddItems(2 * n)
	defer sp.End()
	attackOne := func(poly string, tr trace.Trace) (*AttackResult, error) {
		psp := sp.Child(poly)
		psp.AddItems(n)
		defer psp.End()
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: attack canceled: %w", err)
		}
		// The segments are views into tr, which outlives the
		// classification below.
		ssp := obs.StartSpanCtx(ctx, "segment")
		segs, err := trace.NewSegmenter(n+1).Segment(tr, n+1, 8)
		if err != nil {
			ssp.End()
			return nil, err
		}
		ssp.AddItems(len(segs))
		ssp.End()
		return c.AttackSegmentsParallel(ctx, segs[:n], opts.Workers)
	}
	r1, err := attackOne("e1", cap.TraceE1)
	if err != nil {
		return nil, fmt.Errorf("core: attacking e1 trace: %w", err)
	}
	r2, err := attackOne("e2", cap.TraceE2)
	if err != nil {
		return nil, fmt.Errorf("core: attacking e2 trace: %w", err)
	}
	return &AttackOutcome{E1: r1, E2: r2}, nil
}
