package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"sync"
	"testing"

	"reveal/internal/bfv"
	"reveal/internal/sampler"
	"reveal/internal/trace"
)

// captureInputs is one sampling run of n coefficients plus the sentinel:
// the assembled firmware and the queued values with their timing metadata.
func captureInputs(t testing.TB, n int, seed uint64) ([]byte, []int64, []sampler.SampleMeta) {
	t.Helper()
	src, err := FirmwareSource(n+1, bfv.PaperQ)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := AssembleFirmware(src)
	if err != nil {
		t.Fatal(err)
	}
	values, metas := sampler.DefaultClippedNormal().SamplePoly(sampler.NewXoshiro256(seed), n+1)
	return fw, values, metas
}

// traceSHA256 hashes the length and the Float64bits of every sample.
func traceSHA256(trs ...trace.Trace) string {
	h := sha256.New()
	var buf [8]byte
	for _, tr := range trs {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(tr)))
		h.Write(buf[:])
		for _, v := range tr {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCaptureGolden pins captured traces to the bit: two successive
// captures (fresh noise per run) on the low-noise, default and
// trigger-jitter devices, and one masked-kernel capture. The digests were
// recorded before capture rendered into a pooled buffer; any change to the
// leakage arithmetic, its noise-draw order or the trace length shows here.
func TestCaptureGolden(t *testing.T) {
	fw, values, metas := captureInputs(t, 128, 71)
	jitter := NewDevice(73)
	jitter.TriggerJitter = 40
	cases := []struct {
		name string
		dev  *Device
		want string
	}{
		{"low-noise", NewLowNoiseDevice(72), "45a7e0dc242a8018033a5487ee0b487757ece69dd794547801530fe910026ecb"},
		{"default", NewDevice(72), "a08fdb21f4815bfa0ad64ff7ceac2c908729e047f4d1c065e33d0db0d68e16a8"},
		{"trigger-jitter", jitter, "20121ce324b1ef5255780ef0c5a98efbf40a5d1d7a8df1e7dd73cb98d38c92f1"},
	}
	for _, tc := range cases {
		var trs []trace.Trace
		for run := 0; run < 2; run++ {
			tr, err := tc.dev.Capture(fw, values, metas)
			if err != nil {
				t.Fatal(err)
			}
			trs = append(trs, tr)
		}
		if got := traceSHA256(trs...); got != tc.want {
			t.Errorf("%s: capture digest %s, want %s", tc.name, got, tc.want)
		}
	}
	masked, err := CaptureMasked(NewDevice(74), 16, bfv.PaperQ, values[:16], metas[:16], 75)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := traceSHA256(masked), "45c75738ba5c30d23d36dfa1fa7cb422dc4621cdebfac537f099627700c408c1"; got != want {
		t.Errorf("masked: capture digest %s, want %s", got, want)
	}
}

// TestCaptureConcurrentDevices: captures on separate devices running at
// once share the package's pooled render buffers, yet each trace equals
// the one the same device captures alone. Run under -race in CI.
func TestCaptureConcurrentDevices(t *testing.T) {
	const goroutines, runs = 8, 3
	type input struct {
		fw     []byte
		values []int64
		metas  []sampler.SampleMeta
	}
	inputs := make([]input, goroutines)
	newDev := func(g int) *Device {
		d := NewDevice(uint64(80 + g))
		d.TriggerJitter = 5 * (g % 3)
		return d
	}
	want := make([][]trace.Trace, goroutines)
	for g := range inputs {
		// Different lengths, so a pooled buffer sized by one run is too
		// short or too long for the next.
		fw, values, metas := captureInputs(t, 24+16*g, uint64(90+g))
		inputs[g] = input{fw, values, metas}
		dev := newDev(g)
		for run := 0; run < runs; run++ {
			tr, err := dev.Capture(fw, values, metas)
			if err != nil {
				t.Fatal(err)
			}
			want[g] = append(want[g], tr)
		}
	}
	got := make([][]trace.Trace, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := range inputs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dev := newDev(g)
			in := inputs[g]
			for run := 0; run < runs; run++ {
				tr, err := dev.Capture(in.fw, in.values, in.metas)
				if err != nil {
					errs[g] = err
					return
				}
				got[g] = append(got[g], tr)
			}
		}(g)
	}
	wg.Wait()
	for g := range inputs {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for run := range want[g] {
			if traceSHA256(got[g][run]) != traceSHA256(want[g][run]) {
				t.Errorf("goroutine %d run %d: concurrent capture differs from its serial capture", g, run)
			}
		}
	}
}

// TestCaptureEncryptionMatchesSerialRuns: CaptureEncryption reserves e1's
// and e2's run numbers before either run starts and renders both at once,
// yet its traces equal, by Float64bits, two Capture calls on a twin device
// with the same seed, e1 first. Two successive encryptions with a plain
// capture between them check that the device's later runs are numbered
// as in a serial capture too. Run under -race in CI.
func TestCaptureEncryptionMatchesSerialRuns(t *testing.T) {
	params := smallParams(t)
	kg := bfv.NewKeyGenerator(params, sampler.NewXoshiro256(110))
	pk := kg.GenPublicKey(kg.GenSecretKey())
	src, err := FirmwareSource(params.N+1, FirmwareModulus(params.Moduli[0]))
	if err != nil {
		t.Fatal(err)
	}
	encFW, err := AssembleFirmware(src)
	if err != nil {
		t.Fatal(err)
	}
	plainFW, plainValues, plainMetas := captureInputs(t, 24, 111)
	withSentinel := func(vals []int64, metas []sampler.SampleMeta) ([]int64, []sampler.SampleMeta) {
		return append(slices.Clone(vals), 0), append(slices.Clone(metas), sampler.SampleMeta{})
	}
	sameTrace := func(a, b trace.Trace) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	cases := []struct {
		name   string
		newDev func() *Device
	}{
		{"default", func() *Device { return NewDevice(112) }},
		{"low-noise", func() *Device { return NewLowNoiseDevice(112) }},
		{"trigger-jitter", func() *Device {
			d := NewDevice(112)
			d.TriggerJitter = 40
			return d
		}},
	}
	for _, tc := range cases {
		dev, twin := tc.newDev(), tc.newDev()
		enc := bfv.NewEncryptor(params, pk, sampler.NewXoshiro256(113))
		for round := 0; round < 2; round++ {
			cap, err := CaptureEncryption(dev, params, enc, params.NewPlaintext())
			if err != nil {
				t.Fatal(err)
			}
			for _, run := range []struct {
				poly   string
				got    trace.Trace
				values []int64
				metas  []sampler.SampleMeta
			}{
				{"e1", cap.TraceE1, cap.Truth.E1, cap.Truth.Meta1},
				{"e2", cap.TraceE2, cap.Truth.E2, cap.Truth.Meta2},
			} {
				values, metas := withSentinel(run.values, run.metas)
				want, err := twin.Capture(encFW, values, metas)
				if err != nil {
					t.Fatal(err)
				}
				if !sameTrace(run.got, want) {
					t.Errorf("%s: encryption %d: %s trace differs from its serial capture", tc.name, round, run.poly)
				}
			}
			got, err := dev.Capture(plainFW, plainValues, plainMetas)
			if err != nil {
				t.Fatal(err)
			}
			want, err := twin.Capture(plainFW, plainValues, plainMetas)
			if err != nil {
				t.Fatal(err)
			}
			if !sameTrace(got, want) {
				t.Errorf("%s: capture after encryption %d differs from its serial capture", tc.name, round)
			}
		}
	}
}
