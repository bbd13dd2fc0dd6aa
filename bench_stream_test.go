package reveal

import (
	"bytes"
	"io"
	"testing"

	"reveal/internal/core"
	"reveal/internal/trace"
)

// BenchmarkStream measures the streaming attack engine end to end: one
// pre-captured e2 trace is serialized to the RVTS wire format once, and
// each iteration replays the wire chunk by chunk through
// trace.StreamReader into core.StreamAttack — the exact path a live
// acquisition feed takes. Reported metrics: traces/sec, MB/s of wire
// ingest, and the mean time-to-first-hint latency in nanoseconds.
func BenchmarkStream(b *testing.B) {
	s := benchSession(b, true)
	pt := s.Params.NewPlaintext()
	for i := range pt.Coeffs {
		pt.Coeffs[i] = uint64(i*31) % s.Params.T
	}
	cap, err := core.CaptureEncryption(s.Device, s.Params, s.Encryptor, pt)
	if err != nil {
		b.Fatal(err)
	}
	var wire bytes.Buffer
	if err := trace.WriteSet(&wire, &trace.Set{
		Traces: []trace.Trace{cap.TraceE2}, Labels: []int{0},
	}); err != nil {
		b.Fatal(err)
	}
	br := snapshotBench(b)
	const chunkSamples = 4096
	var ingested int64
	var ttfhSum float64
	b.SetBytes(int64(wire.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reader, err := trace.NewStreamReader(bytes.NewReader(wire.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		sa, err := core.NewStreamAttack(s.Classifier, core.StreamAttackOptions{
			Coefficients: s.Params.N,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := reader.NextTrace(); err != nil {
			b.Fatal(err)
		}
		for {
			n, err := reader.ReadChunk(sa.Window(chunkSamples))
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			if err := sa.Commit(n); err != nil {
				b.Fatal(err)
			}
		}
		_, verdict, err := sa.Finish()
		if err != nil {
			b.Fatal(err)
		}
		if verdict.Classified != s.Params.N {
			b.Fatalf("classified %d of %d coefficients", verdict.Classified, s.Params.N)
		}
		ingested += reader.BytesRead()
		ttfhSum += float64(verdict.TimeToFirstHint.Nanoseconds())
	}
	b.StopTimer()
	secs := b.Elapsed().Seconds()
	if secs > 0 {
		br.Metric(float64(b.N)/secs, "traces_per_second")
		br.Metric(float64(ingested)/secs/1e6, "mb_ingest_per_second")
	}
	br.Metric(ttfhSum/float64(b.N), "time_to_first_hint_ns")
}
