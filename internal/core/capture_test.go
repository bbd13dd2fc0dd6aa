package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
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
