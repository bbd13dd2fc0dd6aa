package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"reveal/internal/bfv"
	"reveal/internal/sampler"
	"reveal/internal/trace"
)

// captureSmall profiles the device and captures one encryption at the
// q=12289, n=64 test scale.
func captureSmall(t *testing.T, seed uint64) (*CoefficientClassifier, *EncryptionCapture, *bfv.Parameters) {
	t.Helper()
	dev := NewDevice(seed)
	cls := smallProfile(t, dev)
	cap, params := captureOn(t, dev, seed)
	return cls, cap, params
}

// captureOn captures one encryption on dev at the q=12289, n=64 test
// scale.
func captureOn(t *testing.T, dev *Device, seed uint64) (*EncryptionCapture, *bfv.Parameters) {
	t.Helper()
	params := smallParams(t)
	prng := sampler.NewXoshiro256(seed ^ 0xFACE)
	kg := bfv.NewKeyGenerator(params, prng)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	enc := bfv.NewEncryptor(params, pk, prng)
	pt := params.NewPlaintext()
	cap, err := CaptureEncryption(dev, params, enc, pt)
	if err != nil {
		t.Fatal(err)
	}
	return cap, params
}

// legacyAttack classifies every segment with legacyClassifySegment, the
// independent oracle of segscorer_test.go.
func legacyAttack(t *testing.T, cls *CoefficientClassifier, segs []trace.Segment) *AttackResult {
	t.Helper()
	res := &AttackResult{}
	for i, s := range segs {
		cl, err := legacyClassifySegment(cls, s.Samples)
		if err != nil {
			t.Fatalf("coefficient %d: legacy: %v", i, err)
		}
		res.Values = append(res.Values, cl.Value)
		res.Signs = append(res.Signs, cl.Sign)
		res.Probs = append(res.Probs, posteriorOf(cl.Probs))
	}
	return res
}

// smallSegments captures one encryption at the test scale and returns its
// classifier and the first n e2 segments (sentinel dropped).
func smallSegments(t *testing.T, seed uint64) (*CoefficientClassifier, []trace.Segment) {
	t.Helper()
	cls, cap, params := captureSmall(t, seed)
	return cls, e2Segments(t, cap, params)
}

// highAccuracySegments is smallSegments on a low-noise device with the
// classifier of the recovery demonstration: HighAccuracyProfileOptions,
// 28 POIs per template.
func highAccuracySegments(t *testing.T, seed uint64) (*CoefficientClassifier, []trace.Segment) {
	t.Helper()
	dev := NewLowNoiseDevice(seed)
	opts := HighAccuracyProfileOptions()
	opts.Q = 12289
	cls, err := Profile(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	cap, params := captureOn(t, dev, seed)
	return cls, e2Segments(t, cap, params)
}

// e2Segments cuts the capture's e2 trace into its params.N coefficient
// segments (sentinel dropped).
func e2Segments(t *testing.T, cap *EncryptionCapture, params *bfv.Parameters) []trace.Segment {
	t.Helper()
	segs, err := trace.SegmentEncryptionTrace(cap.TraceE2, params.N+1, 8)
	if err != nil {
		t.Fatal(err)
	}
	return segs[:params.N]
}

// prefixResult is the first n coefficients of an attack result.
func prefixResult(r *AttackResult, n int) *AttackResult {
	return &AttackResult{Values: r.Values[:n], Signs: r.Signs[:n], Probs: r.Probs[:n]}
}

// TestParallelClassificationMatchesSerial is the worker-pool determinism
// guarantee: the claim loop must reproduce the legacy per-segment
// classification, every posterior to the bit, for any worker count — over
// full claims and full sign groups (64 segments), partial ones (1, 3, 5,
// 17 and 63), and for both the default classifier and the 28-POI
// high-accuracy one.
func TestParallelClassificationMatchesSerial(t *testing.T) {
	for _, fx := range []struct {
		name string
		load func(*testing.T, uint64) (*CoefficientClassifier, []trace.Segment)
	}{{"default", smallSegments}, {"high-accuracy", highAccuracySegments}} {
		cls, segs := fx.load(t, 11)
		if fx.name == "high-accuracy" && len(cls.Pos.POIs) != 28 {
			t.Fatalf("high-accuracy value templates have %d POIs, want 28", len(cls.Pos.POIs))
		}
		want := legacyAttack(t, cls, segs)
		for _, n := range []int{1, 3, 5, 17, 63, len(segs)} {
			for _, workers := range []int{0, 1, 2, 3, 7, 64, 200} {
				got, err := cls.AttackSegmentsParallel(context.Background(), segs[:n], workers)
				if err != nil {
					t.Fatalf("%s n=%d workers=%d: %v", fx.name, n, workers, err)
				}
				assertResultsBitIdentical(t, prefixResult(want, n), got)
			}
		}
	}
}

// TestParallelClassificationFirstErrorWins: a classifier without negative
// templates fails on a negative coefficient. With one such coefficient
// among 256, the other workers are still claiming when it fails; the loop
// must return that error — not a cancellation seen while stopping them —
// whatever the worker count. The coefficient sits inside a claim and a
// sign block (index 41), and the error must name it.
func TestParallelClassificationFirstErrorWins(t *testing.T) {
	cls, segs := smallSegments(t, 22)
	onlyPos := &CoefficientClassifier{
		Length: cls.Length, MaxAbsValue: cls.MaxAbsValue,
		Sign: cls.Sign, Pos: cls.Pos,
	}
	var ok []trace.Segment
	bad := -1
	for i, s := range segs {
		if _, err := legacyClassifySegment(onlyPos, s.Samples); err != nil {
			bad = i
		} else {
			ok = append(ok, s)
		}
	}
	if bad < 0 || len(ok) == 0 {
		t.Fatalf("fixture needs classifiable and failing coefficients (%d ok, failing %d)", len(ok), bad)
	}
	long := make([]trace.Segment, 256)
	for i := range long {
		long[i] = ok[i%len(ok)]
	}
	long[41] = segs[bad]
	for _, workers := range []int{1, 4} {
		_, err := onlyPos.AttackSegmentsParallel(context.Background(), long, workers)
		if err == nil {
			t.Fatalf("workers=%d: classified a negative coefficient without negative templates", workers)
		}
		if !strings.Contains(err.Error(), "no negative templates") {
			t.Errorf("workers=%d: error %q does not name the missing templates", workers, err)
		}
		if !strings.Contains(err.Error(), "coefficient 41:") {
			t.Errorf("workers=%d: error %q does not name coefficient 41", workers, err)
		}
		if errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: error %q reports a cancellation", workers, err)
		}
	}
}

// TestParallelClassificationConcurrentCallers: concurrent attacks on one
// classifier share its scorer pool; every result must still equal the
// oracle. Run under -race.
func TestParallelClassificationConcurrentCallers(t *testing.T) {
	cls, segs := smallSegments(t, 23)
	want := legacyAttack(t, cls, segs)
	const callers = 8
	results := make([]*AttackResult, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g], errs[g] = cls.AttackSegmentsParallel(context.Background(), segs, 4)
		}(g)
	}
	wg.Wait()
	for g := 0; g < callers; g++ {
		if errs[g] != nil {
			t.Fatalf("caller %d: %v", g, errs[g])
		}
		assertResultsBitIdentical(t, want, results[g])
	}
}

// TestAttackWithOptionsMatchesAttack checks the full attack with four
// classification workers per polynomial against the one-worker Attack.
func TestAttackWithOptionsMatchesAttack(t *testing.T) {
	cls, cap, params := captureSmall(t, 12)
	serial, err := cls.Attack(cap, params.N)
	if err != nil {
		t.Fatal(err)
	}
	par, err := cls.AttackWithOptions(context.Background(), cap, params.N, AttackOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial.E1, par.E1) || !reflect.DeepEqual(serial.E2, par.E2) {
		t.Fatal("parallel attack outcome diverges from serial")
	}
}

// TestClassificationCancellation verifies the classification loop, at one
// and at four workers, and the full attack honor an already-canceled
// context.
func TestClassificationCancellation(t *testing.T) {
	cls, cap, params := captureSmall(t, 13)
	segs, err := trace.SegmentEncryptionTrace(cap.TraceE2, params.N+1, 8)
	if err != nil {
		t.Fatal(err)
	}
	segs = segs[:params.N]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cls.AttackSegmentsCtx(ctx, segs); err == nil {
		t.Error("one-worker classification ignored canceled context")
	}
	if _, err := cls.AttackSegmentsParallel(ctx, segs, 4); err == nil {
		t.Error("four-worker classification ignored canceled context")
	}
	if _, err := cls.AttackWithOptions(ctx, cap, params.N, AttackOptions{Workers: 2}); err == nil {
		t.Error("AttackWithOptions ignored canceled context")
	}
}

// TestProfileCancellation verifies profiling and diagnostics abort at stage
// boundaries once the context is done.
func TestProfileCancellation(t *testing.T) {
	dev := NewDevice(14)
	opts := DefaultProfileOptions()
	opts.Q = 12289
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ProfileCtx(ctx, dev, opts); err == nil {
		t.Error("ProfileCtx ignored canceled context")
	}
	if _, err := Diagnose(ctx, dev, DiagnosticsOptions{Profile: opts}); err == nil {
		t.Error("Diagnose ignored canceled context")
	}
}

// TestTrainClassifierCtxMatchesSerialTraining verifies the concurrent
// per-class training produces the same classifier as a fresh profile run
// (training is deterministic given the collected sets).
func TestTrainClassifierCtxMatchesSerialTraining(t *testing.T) {
	dev := NewDevice(15)
	opts := DefaultProfileOptions()
	opts.Q = 12289
	opts.TracesPerValue = 20
	sets, err := CollectProfilingSets(context.Background(), dev, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := TrainClassifier(context.Background(), sets, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainClassifier(context.Background(), sets, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("repeated training on the same sets diverged")
	}
}
