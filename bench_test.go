// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, plus the ablations DESIGN.md calls out. Each
// benchmark reports its headline numbers via b.ReportMetric so a bench run
// regenerates the rows the paper prints:
//
//	go test -bench=Table -benchmem .
//	go test -bench=Ablation .
package reveal

import (
	"context"
	"sync"
	"testing"

	"reveal/internal/bfv"
	"reveal/internal/core"
	"reveal/internal/dbdd"
	"reveal/internal/experiments"
	"reveal/internal/sampler"
	"reveal/internal/sca"
	"reveal/internal/trace"
)

// Shared sessions: profiling is expensive, so each device profile is built
// once per bench binary run.
var (
	onceDefault    sync.Once
	defaultSession *experiments.Session
	onceLowNoise   sync.Once
	lowNoiseSess   *experiments.Session
)

func getDefaultSession(b *testing.B) *experiments.Session {
	b.Helper()
	onceDefault.Do(func() {
		cfg := experiments.DefaultConfig()
		cfg.AttackEncryptions = 1
		s, err := experiments.NewSession(cfg)
		if err != nil {
			b.Fatal(err)
		}
		defaultSession = s
	})
	if defaultSession == nil {
		b.Fatal("default session failed to build")
	}
	return defaultSession
}

func getLowNoiseSession(b *testing.B) *experiments.Session {
	b.Helper()
	onceLowNoise.Do(func() {
		cfg := experiments.DefaultConfig()
		cfg.LowNoise = true
		cfg.AttackEncryptions = 1
		s, err := experiments.NewSession(cfg)
		if err != nil {
			b.Fatal(err)
		}
		lowNoiseSess = s
	})
	if lowNoiseSess == nil {
		b.Fatal("low-noise session failed to build")
	}
	return lowNoiseSess
}

// BenchmarkTable1TemplateAttack regenerates Table I: one single-trace
// attack per iteration, reporting sign/zero/overall accuracy.
func BenchmarkTable1TemplateAttack(b *testing.B) {
	s := getDefaultSession(b)
	br := snapshotBench(b)
	b.ResetTimer()
	var last *experiments.Table1Result
	for i := 0; i < b.N; i++ {
		r, err := s.RunTable1()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	br.Metric(100*last.SignAccuracy, "sign-acc-%")
	br.Metric(100*last.ZeroAccuracy, "zero-acc-%")
	br.Metric(100*last.Confusion.OverallAccuracy(), "value-acc-%")
}

// BenchmarkTable2HintProbabilities regenerates Table II: probability rows
// with centered mean and variance for secrets in [-2, 2].
func BenchmarkTable2HintProbabilities(b *testing.B) {
	s := getLowNoiseSession(b)
	t1, err := s.RunTable1()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var rows []experiments.Table2Row
	for i := 0; i < b.N; i++ {
		rows, err = experiments.RunTable2(t1.LastOutcome.E2, t1.LastCapture.Truth.E2)
		if err != nil {
			b.Fatal(err)
		}
	}
	// Mean posterior on the truth across the five rows.
	sum := 0.0
	for _, r := range rows {
		sum += r.Probs.At(r.Secret)
	}
	b.ReportMetric(sum/float64(len(rows)), "mean-truth-posterior")
}

// BenchmarkTable3FullHints regenerates Table III: bikz without and with
// the attack's full hints.
func BenchmarkTable3FullHints(b *testing.B) {
	s := getLowNoiseSession(b)
	t1, err := s.RunTable1()
	if err != nil {
		b.Fatal(err)
	}
	br := snapshotBench(b)
	b.ResetTimer()
	var r *experiments.Table3Result
	for i := 0; i < b.N; i++ {
		r, err = experiments.RunTable3(s.Params, t1.LastOutcome.E2)
		if err != nil {
			b.Fatal(err)
		}
	}
	br.Metric(r.WithoutHintsBikz, "bikz-no-hints")
	br.Metric(r.WithHintsBikz, "bikz-with-hints")
	br.Metric(r.WithHintsBits, "bits-with-hints")
}

// BenchmarkTable4SignOnlyHints regenerates Table IV: the branch-only
// adversary plus one guess.
func BenchmarkTable4SignOnlyHints(b *testing.B) {
	s := getDefaultSession(b)
	t1, err := s.RunTable1()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var r *experiments.Table4Result
	for i := 0; i < b.N; i++ {
		r, err = experiments.RunTable4(s.Params, t1.LastOutcome.E2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.WithHintsBikz, "bikz-sign-hints")
	b.ReportMetric(r.WithGuessesBikz, "bikz-with-guess")
	b.ReportMetric(100*r.SuccessProbability, "guess-success-%")
}

// BenchmarkFig3SegmentTrace regenerates Fig. 3: capture a three-coefficient
// trace and segment it by the sampler peaks.
func BenchmarkFig3SegmentTrace(b *testing.B) {
	var r *experiments.Fig3Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.RunFig3(uint64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.PeakCount), "peaks")
	b.ReportMetric(float64(len(r.Full)), "samples")
}

// BenchmarkEndToEndAttack is the headline pipeline: capture one encryption,
// classify every coefficient from the single trace, repair, and recover
// the plaintext.
func BenchmarkEndToEndAttack(b *testing.B) {
	s := getLowNoiseSession(b)
	br := snapshotBench(b)
	recovered := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt := s.Params.NewPlaintext()
		pt.Coeffs[0] = uint64(i) % s.Params.T
		cap, err := core.CaptureEncryption(s.Device, s.Params, s.Encryptor, pt)
		if err != nil {
			b.Fatal(err)
		}
		out, err := s.Classifier.Attack(cap, s.Params.N)
		if err != nil {
			b.Fatal(err)
		}
		got, _, _, err := core.RepairAndRecover(s.Params, s.PublicKey, cap.Ciphertext, out.E2, 16, 100000)
		if err != nil {
			continue
		}
		if got.Coeffs[0] == pt.Coeffs[0] {
			recovered++
		}
	}
	br.Metric(100*float64(recovered)/float64(b.N), "recovery-%")
}

// BenchmarkAblationV2Only quantifies the paper's V3 claim: negative
// coefficients (which additionally leak through the negation, V3) must be
// classified better than positives (V2 only).
func BenchmarkAblationV2Only(b *testing.B) {
	s := getDefaultSession(b)
	var negAcc, posAcc float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := s.RunTable1()
		if err != nil {
			b.Fatal(err)
		}
		var nSum, pSum float64
		var nN, pN int
		for v := 1; v <= 7; v++ {
			if r.Confusion.Total(v) > 5 {
				pSum += r.Confusion.Accuracy(v)
				pN++
			}
			if r.Confusion.Total(-v) > 5 {
				nSum += r.Confusion.Accuracy(-v)
				nN++
			}
		}
		if pN > 0 {
			posAcc = pSum / float64(pN)
		}
		if nN > 0 {
			negAcc = nSum / float64(nN)
		}
	}
	b.ReportMetric(100*negAcc, "neg-acc-%(V2+V3)")
	b.ReportMetric(100*posAcc, "pos-acc-%(V2-only)")
}

// BenchmarkAblationPOI sweeps the number of points of interest, the
// template practicality knob of §III-D.
func BenchmarkAblationPOI(b *testing.B) {
	for _, pois := range []int{4, 12, 28} {
		b.Run(map[int]string{4: "poi4", 12: "poi12", 28: "poi28"}[pois], func(b *testing.B) {
			dev := core.NewDevice(21)
			opts := core.DefaultProfileOptions()
			opts.Templates.POICount = pois
			opts.Templates.MinSpacing = 1
			cls, err := core.Profile(dev, opts)
			if err != nil {
				b.Fatal(err)
			}
			params := bfv.PaperParameters()
			prng := sampler.NewXoshiro256(22)
			kg := bfv.NewKeyGenerator(params, prng)
			sk := kg.GenSecretKey()
			pk := kg.GenPublicKey(sk)
			_ = sk
			enc := bfv.NewEncryptor(params, pk, prng)
			var acc float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cap, err := core.CaptureEncryption(dev, params, enc, params.NewPlaintext())
				if err != nil {
					b.Fatal(err)
				}
				out, err := cls.Attack(cap, params.N)
				if err != nil {
					b.Fatal(err)
				}
				acc, _, err = out.E2.Accuracy(cap.Truth.E2)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*acc, "value-acc-%")
		})
	}
}

// BenchmarkAblationNoiseSweep sweeps measurement noise: template accuracy
// versus acquisition quality.
func BenchmarkAblationNoiseSweep(b *testing.B) {
	for _, cfg := range []struct {
		name  string
		sigma float64
	}{{"noise0p002", 0.002}, {"noise0p015", 0.015}, {"noise0p05", 0.05}} {
		b.Run(cfg.name, func(b *testing.B) {
			dev := core.NewDevice(23)
			dev.Model.NoiseSigma = cfg.sigma
			cls, err := core.Profile(dev, core.DefaultProfileOptions())
			if err != nil {
				b.Fatal(err)
			}
			params := bfv.PaperParameters()
			prng := sampler.NewXoshiro256(24)
			kg := bfv.NewKeyGenerator(params, prng)
			sk := kg.GenSecretKey()
			pk := kg.GenPublicKey(sk)
			_ = sk
			enc := bfv.NewEncryptor(params, pk, prng)
			var acc float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cap, err := core.CaptureEncryption(dev, params, enc, params.NewPlaintext())
				if err != nil {
					b.Fatal(err)
				}
				out, err := cls.Attack(cap, params.N)
				if err != nil {
					b.Fatal(err)
				}
				acc, _, err = out.E2.Accuracy(cap.Truth.E2)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*acc, "value-acc-%")
		})
	}
}

// BenchmarkAblationShuffling measures the shuffling countermeasure:
// positional accuracy collapses while multiset accuracy survives.
func BenchmarkAblationShuffling(b *testing.B) {
	s := getDefaultSession(b)
	const n = 256
	src, err := core.FirmwareSource(n+1, bfv.PaperQ)
	if err != nil {
		b.Fatal(err)
	}
	fw, err := core.AssembleFirmware(src)
	if err != nil {
		b.Fatal(err)
	}
	cn := sampler.DefaultClippedNormal()
	var ev *core.ShuffleEvaluation
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prng := sampler.NewXoshiro256(uint64(i) + 31)
		values, metas := cn.SamplePoly(prng, n)
		values = append(values, 0)
		metas = append(metas, sampler.SampleMeta{})
		tr, perm, err := core.CaptureShuffled(s.Device, fw, values, metas, sampler.NewXoshiro256(uint64(i)+63))
		if err != nil {
			b.Fatal(err)
		}
		ev, err = core.EvaluateShuffledAttack(s.Classifier, tr, values, perm)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*ev.PositionalAccuracy, "positional-acc-%")
	b.ReportMetric(100*ev.MultisetAccuracy, "multiset-acc-%")
}

// BenchmarkAblationPatchedSampler runs the attack against the SEAL
// v3.6-style branch-free kernel: the branch classifier must collapse.
func BenchmarkAblationPatchedSampler(b *testing.B) {
	s := getDefaultSession(b)
	const n = 256
	src, err := core.FirmwareBranchless(n+1, bfv.PaperQ)
	if err != nil {
		b.Fatal(err)
	}
	fw, err := core.AssembleFirmware(src)
	if err != nil {
		b.Fatal(err)
	}
	cn := sampler.DefaultClippedNormal()
	var signAcc float64
	attacked := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prng := sampler.NewXoshiro256(uint64(i) + 91)
		values, metas := cn.SamplePoly(prng, n)
		values = append(values, 0)
		metas = append(metas, sampler.SampleMeta{})
		tr, err := s.Device.Capture(fw, values, metas)
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Classifier.AttackTrace(tr, n+1)
		if err != nil {
			// Segmentation failure against the patched kernel counts as a
			// defense win; score as zero accuracy.
			signAcc = 0
			continue
		}
		attacked++
		ok := 0
		for j := 0; j < n; j++ {
			if res.Signs[j] == sca.SignOf(int(values[j])) {
				ok++
			}
		}
		signAcc = float64(ok) / float64(n)
	}
	b.ReportMetric(100*signAcc, "sign-acc-%")
	b.ReportMetric(float64(attacked), "segmentable-runs")
}

// BenchmarkBFVEncrypt and friends benchmark the substrate itself.
func BenchmarkBFVEncrypt(b *testing.B) {
	params := bfv.PaperParameters()
	prng := sampler.NewXoshiro256(41)
	kg := bfv.NewKeyGenerator(params, prng)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	_ = sk
	enc := bfv.NewEncryptor(params, pk, prng)
	pt := params.NewPlaintext()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Encrypt(pt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeviceCapture measures the ISS + power synthesis throughput for
// a full 1024-coefficient sampling run.
func BenchmarkDeviceCapture(b *testing.B) {
	br := snapshotBench(b)
	dev := core.NewDevice(51)
	src, err := core.FirmwareSource(1024, bfv.PaperQ)
	if err != nil {
		b.Fatal(err)
	}
	fw, err := core.AssembleFirmware(src)
	if err != nil {
		b.Fatal(err)
	}
	cn := sampler.DefaultClippedNormal()
	values, metas := cn.SamplePoly(sampler.NewXoshiro256(52), 1024)
	var tr trace.Trace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err = dev.Capture(fw, values, metas)
		if err != nil {
			b.Fatal(err)
		}
	}
	br.Metric(float64(len(tr)), "samples")
}

// BenchmarkDBDDFullPipeline measures the estimator cost at paper scale.
func BenchmarkDBDDFullPipeline(b *testing.B) {
	snapshotBench(b)
	for i := 0; i < b.N; i++ {
		in, err := dbdd.NewLWEInstance(1024, 1024, 132120577, 2.0/3.0, 3.2*3.2)
		if err != nil {
			b.Fatal(err)
		}
		for c := 1024; c < 2048; c++ {
			if err := in.PerfectHint(c, 0); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := in.EstimateBikz(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCrossDevice measures template portability: profiling on
// one device, attacking a process-variation sibling (§V-B of the paper).
func BenchmarkAblationCrossDevice(b *testing.B) {
	cfg := experiments.DefaultConfig()
	cfg.AttackEncryptions = 1
	var res *experiments.CrossDeviceResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.RunCrossDevice(cfg, 0.25)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.SameDeviceValueAcc, "same-device-acc-%")
	b.ReportMetric(100*res.CrossDeviceValueAcc, "cross-device-acc-%")
}

// BenchmarkTVLA measures the fixed-vs-random leakage assessment of the
// vulnerable kernel.
func BenchmarkTVLA(b *testing.B) {
	dev := core.NewDevice(61)
	var res *core.TVLAResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = core.RunTVLA(dev, bfv.PaperQ, 5, 60, false, uint64(i)+62)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MaxT, "max-t")
}

// BenchmarkSecuritySweep estimates the attack across every SEAL default
// degree (the paper's "applicable to all security levels" claim).
func BenchmarkSecuritySweep(b *testing.B) {
	br := snapshotBench(b)
	var rows []experiments.SweepRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.RunSecuritySweep([]int{1024, 2048, 4096, 8192, 16384, 32768}, 7)
		if err != nil {
			b.Fatal(err)
		}
	}
	br.Metric(rows[0].FullHintsBikz, "n1024-full-bikz")
	br.Metric(rows[len(rows)-1].FullHintsBikz, "n32768-full-bikz")
}

// BenchmarkDecryptionCPA runs the multi-trace decryption-side key recovery
// (the §II-B extension).
func BenchmarkDecryptionCPA(b *testing.B) {
	dev := core.NewDevice(71)
	sk := sampler.TernaryPoly(sampler.NewXoshiro256(72), 24)
	var rate float64
	for i := 0; i < b.N; i++ {
		res, err := core.RunDecryptionAttack(dev, sk, 12289, 150, uint64(i)+73)
		if err != nil {
			b.Fatal(err)
		}
		rate, err = core.KeyRecoveryRate(res.Recovered, sk)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*rate, "key-recovery-%")
}

// BenchmarkAblationMasking evaluates the first-order masked kernel: the
// paper's claim that masking cannot remove the branch leakage.
func BenchmarkAblationMasking(b *testing.B) {
	dev := core.NewDevice(91)
	var ev *core.MaskingEvaluation
	var err error
	for i := 0; i < b.N; i++ {
		ev, err = core.EvaluateMasking(dev, bfv.PaperQ, 40, 128, uint64(i)+92)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*ev.SignAccuracy, "sign-acc-%")
	b.ReportMetric(100*ev.ValueAccuracy, "value-acc-%")
}

// BenchmarkAblationProfilingSize sweeps the profiling-campaign size (the
// paper used 220k executions; how much does scale buy?).
func BenchmarkAblationProfilingSize(b *testing.B) {
	for _, tpv := range []int{10, 40, 120} {
		name := map[int]string{10: "traces10", 40: "traces40", 120: "traces120"}[tpv]
		b.Run(name, func(b *testing.B) {
			dev := core.NewDevice(101)
			opts := core.DefaultProfileOptions()
			opts.TracesPerValue = tpv
			cls, err := core.Profile(dev, opts)
			if err != nil {
				b.Fatal(err)
			}
			params := bfv.PaperParameters()
			prng := sampler.NewXoshiro256(102)
			kg := bfv.NewKeyGenerator(params, prng)
			sk := kg.GenSecretKey()
			pk := kg.GenPublicKey(sk)
			_ = sk
			enc := bfv.NewEncryptor(params, pk, prng)
			var acc float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cap, err := core.CaptureEncryption(dev, params, enc, params.NewPlaintext())
				if err != nil {
					b.Fatal(err)
				}
				out, err := cls.Attack(cap, params.N)
				if err != nil {
					b.Fatal(err)
				}
				acc, _, err = out.E2.Accuracy(cap.Truth.E2)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*acc, "value-acc-%")
		})
	}
}

// BenchmarkAblationSecondOrder certifies the masking order of the masked
// kernel: first-order clean on the share region, second-order leaky.
func BenchmarkAblationSecondOrder(b *testing.B) {
	dev := core.NewDevice(111)
	dev.Model.AlphaHWData *= 3
	dev.Model.DeltaHDBus *= 3
	dev.Model.NoiseSigma = 0.005
	dev.Model.PortSpike = 25
	var study *core.SecondOrderStudy
	var err error
	for i := 0; i < b.N; i++ {
		study, err = core.RunSecondOrderStudy(dev, 257, 14, 1500, uint64(i)+112)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(study.FirstOrderMaxT, "first-order-max-t")
	b.ReportMetric(study.SecondOrderMaxT, "second-order-max-t")
}

// attackSegments collects the per-coefficient segments of both error
// polynomials of one captured encryption — the classify-stage workload.
func attackSegments(b *testing.B, s *experiments.Session) []trace.Segment {
	b.Helper()
	pt := s.Params.NewPlaintext()
	cap, err := core.CaptureEncryption(s.Device, s.Params, s.Encryptor, pt)
	if err != nil {
		b.Fatal(err)
	}
	var segs []trace.Segment
	for _, tr := range []trace.Trace{cap.TraceE1, cap.TraceE2} {
		ss, err := trace.SegmentEncryptionTrace(tr, s.Params.N+1, 8)
		if err != nil {
			b.Fatal(err)
		}
		segs = append(segs, ss[:s.Params.N]...)
	}
	return segs
}

// BenchmarkClassifyStage isolates the template-classification hot loop: the
// serial scoring of every per-coefficient segment of one encryption (both
// error polynomials, 2·n coefficients), with capture and segmentation held
// outside the timed region. This is the layer the Gaussian-template scorer
// dominates and the benchmark the perf gate tracks most closely.
func BenchmarkClassifyStage(b *testing.B) {
	s := getDefaultSession(b)
	br := snapshotBench(b)
	segs := attackSegments(b, s)
	ctx := context.Background()
	var res *core.AttackResult
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = s.Classifier.AttackSegmentsCtx(ctx, segs)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if len(res.Values) != len(segs) {
		b.Fatalf("classified %d of %d segments", len(res.Values), len(segs))
	}
	br.Metric(float64(len(segs)), "coefficients")
	br.Metric(float64(len(segs))/(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e9), "coeffs-per-second")
}

// BenchmarkSegmentStage isolates trace segmentation: cutting one captured
// sampling trace into its per-coefficient sub-traces.
func BenchmarkSegmentStage(b *testing.B) {
	s := getDefaultSession(b)
	br := snapshotBench(b)
	pt := s.Params.NewPlaintext()
	cap, err := core.CaptureEncryption(s.Device, s.Params, s.Encryptor, pt)
	if err != nil {
		b.Fatal(err)
	}
	var segs []trace.Segment
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		segs, err = trace.SegmentEncryptionTrace(cap.TraceE2, s.Params.N+1, 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	br.Metric(float64(len(segs)), "segments")
}
