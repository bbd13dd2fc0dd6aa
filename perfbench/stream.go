package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"time"

	"reveal/internal/bfv"
	"reveal/internal/core"
	"reveal/internal/sampler"
	"reveal/internal/trace"
)

// Stream workload knobs: the e2 traces a set-up captures, the replay chunk
// size, and the early-exit target.
const (
	streamTraces = 24
	streamChunk  = 4096
	streamTarget = 200.0
	// streamDevice seeds the profiled device; the seed draws the keys,
	// plaintexts and the measurement noise of the captured traces.
	streamDevice = 1
)

// streamWorkload replays captured e2 traces from the RVTS wire format
// through the streaming attack until it reaches the target bikz and exits
// early. Capture is off the path; wire decoding, the streaming segmenter,
// incremental classification and DBDD estimates are on it.
var streamWorkload = &workload{
	name:       "stream-exit",
	setup:      setupStream,
	selfLayers: []string{"trace.ingest_ms", "core.stream_open_ms", "dbdd.estimate_ms", "core.stream_classify_ms", "core.stream_finish_ms"},
}

// streamTrace is one captured e2 trace on the wire, with the verdict the
// streaming attack reached on it during set-up (already checked against
// the batch attack).
type streamTrace struct {
	wire       []byte
	truth      []int64
	classified int
	values     []int
}

type streamInstance struct {
	cls    *core.CoefficientClassifier
	params *bfv.Parameters
	traces []streamTrace
	dbdd   stage
}

func setupStream(seed uint64) (instance, error) {
	s := mix(seed, 0x73747265616d)
	cls, err := core.Profile(core.NewDevice(streamDevice), core.DefaultProfileOptions())
	if err != nil {
		return nil, err
	}
	params := bfv.PaperParameters()
	prng := sampler.NewXoshiro256(mix(s, 1))
	kg := bfv.NewKeyGenerator(params, prng)
	enc := bfv.NewEncryptor(params, kg.GenPublicKey(kg.GenSecretKey()), prng)
	st := &streamInstance{cls: cls, params: params, dbdd: newStage(programStages, "dbdd")}
	dev := core.NewDevice(mix(s, 2))
	for k := uint64(0); k < streamTraces; k++ {
		pt := seededPlaintext(params, mix(s, k+3))
		cap, err := core.CaptureEncryption(dev, params, enc, pt)
		if err != nil {
			return nil, err
		}
		var wire bytes.Buffer
		if err := trace.WriteSet(&wire, &trace.Set{Traces: []trace.Trace{cap.TraceE2}, Labels: []int{0}}); err != nil {
			return nil, err
		}
		tr := streamTrace{wire: wire.Bytes(), truth: cap.Truth.E2}
		exited, err := st.verify(&tr, cap.TraceE2)
		if err != nil {
			return nil, fmt.Errorf("trace %d: %w", k, err)
		}
		if exited {
			st.traces = append(st.traces, tr)
		}
	}
	if len(st.traces) < streamTraces/2 {
		return nil, fmt.Errorf("only %d of %d traces reached bikz %.0f", len(st.traces), streamTraces, streamTarget)
	}
	return st, nil
}

// verify streams tr once. A trace whose hints never reach the target bikz
// is reported as not exited and left out of the workload: the workload
// measures early exits. Otherwise it checks that the banked early-exit
// prefix digests equal to the batch attack on the full trace, truncated to
// the same prefix, and the verdict becomes the reference every operation
// on this trace must reproduce.
func (s *streamInstance) verify(tr *streamTrace, full trace.Trace) (exited bool, err error) {
	res, verdict, _, err := s.stream(tr.wire, nil)
	if err != nil || !verdict.EarlyExit {
		return false, err
	}
	n := s.params.N
	segs, err := trace.NewSegmenter(n+1).Segment(full, n+1, 8)
	if err != nil {
		return false, err
	}
	batch, err := s.cls.AttackSegmentsCtx(context.Background(), segs[:n])
	if err != nil {
		return false, err
	}
	sd, err := res.Digest()
	if err != nil {
		return false, err
	}
	bd, err := batch.Prefix(verdict.Classified).Digest()
	if err != nil {
		return false, err
	}
	if sd != bd {
		return false, fmt.Errorf("stream prefix digest %.12s differs from batch digest %.12s", sd, bd)
	}
	tr.classified = verdict.Classified
	tr.values = append([]int(nil), res.Values...)
	return true, nil
}

func (s *streamInstance) close() {}

func (s *streamInstance) derive(sum map[string]float64, _ int) map[string]float64 {
	return map[string]float64{
		"trace.ingest_mb_per_s": rate(sum["trace.ingest_bytes"]/1e6, sum["trace.ingest_ms"]),
		"trace.ingested_ratio":  sum["trace.ingest_bytes"] / sum["trace.wire_bytes"],
		"sca.coeffs_per_s":      rate(sum["sca.coeffs"], sum["core.stream_classify_ms"]),
	}
}

// stream replays one wire trace through the streaming attack until its
// verdict. With layers non-nil it times every call into the trace and core
// layers. It returns the banked result, the verdict, and the time from the
// first wire byte to the streaming attack's start.
func (s *streamInstance) stream(wire []byte, layers map[string]float64) (*core.AttackResult, *core.StreamVerdict, time.Duration, error) {
	on := layers != nil
	t0 := time.Now()
	sp := startSpan(on)
	reader, err := trace.NewStreamReader(bytes.NewReader(wire))
	sp.end(layers, "trace.ingest_ms")
	if err != nil {
		return nil, nil, 0, err
	}
	opened := time.Since(t0)
	sp = startSpan(on)
	sa, err := core.NewStreamAttack(s.cls, core.StreamAttackOptions{
		Coefficients: s.params.N,
		TargetBikz:   streamTarget,
		Params:       s.params,
	})
	sp.end(layers, "core.stream_open_ms")
	if err != nil {
		return nil, nil, 0, err
	}
	defer sa.Close()
	var commitMark stageMark
	if on {
		commitMark = s.dbdd.mark()
	}
	sp = startSpan(on)
	_, _, err = reader.NextTrace()
	sp.end(layers, "trace.ingest_ms")
	if err != nil {
		return nil, nil, 0, err
	}
	for !sa.EarlyExited() {
		window := sa.Window(streamChunk)
		sp = startSpan(on)
		n, err := reader.ReadChunk(window)
		sp.end(layers, "trace.ingest_ms")
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, 0, err
		}
		sp = startSpan(on)
		err = sa.Commit(n)
		sp.end(layers, "core.stream_commit_ms")
		if err != nil {
			return nil, nil, 0, err
		}
	}
	if on {
		// The commits' DBDD estimates split the commit time into estimate
		// and classification (segmenter, scoring and hint integration).
		est, runs, _ := s.dbdd.since(commitMark)
		layers["dbdd.estimate_ms"] = est
		layers["dbdd.estimates"] = float64(runs)
		layers["core.stream_classify_ms"] = layers["core.stream_commit_ms"] - est
		layers["sca.coeffs"] = float64(sa.Classified())
	}
	sp = startSpan(on)
	res, verdict, err := sa.Finish()
	sp.end(layers, "core.stream_finish_ms")
	if err != nil {
		return nil, nil, 0, err
	}
	if on {
		layers["trace.ingest_bytes"] = float64(reader.BytesRead())
		layers["trace.wire_bytes"] = float64(len(wire))
	}
	return res, verdict, opened, nil
}

func (s *streamInstance) op(i int, traced bool) opResult {
	tr := &s.traces[i%len(s.traces)]
	setProgramTracing(traced)
	var layers map[string]float64
	if traced {
		layers = map[string]float64{}
	}
	t0 := time.Now()
	res, verdict, opened, err := s.stream(tr.wire, layers)
	latency := time.Since(t0)
	if err != nil {
		return opResult{latency: latency, err: err}
	}
	out := opResult{latency: latency, ttfh: opened + verdict.TimeToFirstHint, layers: layers}
	for k, v := range res.Values {
		out.classified++
		if int64(v) == tr.truth[k] {
			out.correct++
		}
	}
	switch {
	case !verdict.EarlyExit:
		out.err = fmt.Errorf("op %d: no early exit after %d coefficients", i, verdict.Classified)
	case verdict.Classified != tr.classified || !equalInts(res.Values, tr.values):
		out.err = fmt.Errorf("op %d: stream verdict after %d coefficients differs from the verified one (%d)",
			i, verdict.Classified, tr.classified)
	}
	return out
}

func equalInts(a, b []int) bool {
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
