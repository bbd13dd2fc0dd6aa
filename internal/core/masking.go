package core

import (
	"context"
	"fmt"

	"reveal/internal/sampler"
	"reveal/internal/sca"
	"reveal/internal/trace"
)

// Masking countermeasure study. The paper (§V-A) explicitly advises
// against masking: "we do not recommend masking-based defenses as they are
// known to be susceptible against single-trace attacks". This module
// builds a first-order arithmetically masked variant of the sampling
// kernel — the stored value is split into two random shares — and
// evaluates what the single-trace attack still recovers: the value leakage
// (V2/V3) is indeed masked away, but the sign-dependent branches (V1)
// cannot be masked, so the adversary retains exactly the Table IV
// ("branch-only") power.

// MaskPortBase is a separate MMIO region for the mask generator: it sits
// outside the power model's sampler-port window so mask reads do not
// produce the segmentation spike (the masking RNG is a quiet hardware
// unit, unlike the heavyweight Gaussian sampler).
const MaskPortBase uint32 = 0xffff1000

// FirmwareMasked generates the 2-share masked sign-assignment kernel: the
// branch structure of Fig. 2 remains (it depends on the secret sign and
// cannot be arithmetically masked), but every stored value v is replaced
// by the pair (r, v−r mod q) with a fresh random r.
func FirmwareMasked(n int, q uint64) (string, error) {
	if n < 1 {
		return "", fmt.Errorf("core: need at least 1 coefficient, got %d", n)
	}
	if q == 0 || q > 1<<31 {
		return "", fmt.Errorf("core: modulus %d does not fit the RV32 kernel", q)
	}
	return fmt.Sprintf(`
	# Masked kernel: value split into two shares; branches remain (V1).
	li   s0, %d          # sampler port
	li   s5, %d          # mask generator port
	li   s1, %d          # &shares[0] (pairs: r, v-r)
	li   s2, %d          # n
	li   s3, %d          # q
	li   t0, 0
loop:
	lw   t1, 0(s0)       # noise
	lw   t5, 0(s5)       # fresh mask r (uniform mod q)
	blt  zero, t1, pos
	blt  t1, zero, neg
	sub  t6, zero, t5    # zero branch: (0 - r)
	j    fix
pos:
	sub  t6, t1, t5      # v - r: the mask is applied in the FIRST
	j    fix             # operation touching the value
neg:
	neg  t2, t1          # the negation path cannot avoid raw
	sub  t3, s3, t2      # intermediates (q - |v|) without sampler-side
	sub  t6, t3, t5      # masking - exactly the paper's objection
fix:
	# Constant-time wrap: add q when t6 went negative (arithmetic mask,
	# no secret-dependent branch).
	srai t4, t6, 31
	and  t4, t4, s3
	add  t6, t6, t4
	sw   t5, 0(s1)
	sw   t6, 4(s1)
next:
	addi s1, s1, 8
	addi t0, t0, 1
	blt  t0, s2, loop
	ebreak
`, PortBase, MaskPortBase, PolyBase, n, q), nil
}

// maskPort serves fresh uniform masks mod q.
type maskPort struct {
	q    uint64
	prng sampler.PRNG
}

func (p *maskPort) Read(uint32) (uint32, int) {
	return uint32(sampler.Uint64Below(p.prng, p.q)), 0
}

func (p *maskPort) Write(uint32, uint32) int { return 0 }

// CaptureMasked runs the masked kernel with the given noise values.
func CaptureMasked(dev *Device, n int, q uint64, values []int64,
	metas []sampler.SampleMeta, maskSeed uint64) (trace.Trace, error) {
	src, err := FirmwareMasked(n, q)
	if err != nil {
		return nil, err
	}
	fw, err := AssembleFirmware(src)
	if err != nil {
		return nil, err
	}
	if len(values) != len(metas) {
		return nil, fmt.Errorf("core: %d values but %d metas", len(values), len(metas))
	}
	inner := &samplerPort{values: values, waits: make([]int, len(values))}
	for i, m := range metas {
		inner.waits[i] = dev.WaitBase + dev.WaitPerRejection*m.Rejections
	}
	masks := &maskPort{q: q, prng: sampler.NewXoshiro256(maskSeed)}
	return dev.captureRegions(fw, []mmioRegionSpec{
		{base: PortBase, size: 0x100, handler: inner},
		{base: MaskPortBase, size: 0x100, handler: masks},
	}, len(values))
}

// MaskingEvaluation compares what the attack recovers against the masked
// kernel.
type MaskingEvaluation struct {
	SignAccuracy  float64
	ValueAccuracy float64
}

// EvaluateMasking profiles the masked kernel (the adversary can profile
// whatever implementation runs, per the threat model), attacks fresh
// traces, and reports what survives: the branch (sign) leakage does, the
// value leakage does not.
func EvaluateMasking(dev *Device, q uint64, tracesPerValue int, attackCoeffs int, seed uint64) (*MaskingEvaluation, error) {
	const coeffsPerRun = 18
	cn := sampler.DefaultClippedNormal()
	metaPRNG := sampler.NewXoshiro256(seed)

	// Profiling on the masked kernel: collect labeled sub-traces.
	var rawSegs []trace.Segment
	var labels []int
	const maxAbs = 14
	needed := map[int]int{}
	remaining := 0
	for v := -maxAbs; v <= maxAbs; v++ {
		needed[v] = tracesPerValue
		remaining += tracesPerValue
	}
	next := -maxAbs
	advance := func() int {
		for tries := 0; tries <= 2*maxAbs+1; tries++ {
			v := next
			next++
			if next > maxAbs {
				next = -maxAbs
			}
			if needed[v] > 0 {
				return v
			}
		}
		return int(sampler.Uint64Below(metaPRNG, uint64(2*maxAbs+1))) - maxAbs
	}
	run := uint64(0)
	for remaining > 0 {
		run++
		values := make([]int64, coeffsPerRun)
		for i := range values {
			values[i] = int64(advance())
		}
		metas := SyntheticMetas(metaPRNG, cn, coeffsPerRun)
		tr, err := CaptureMasked(dev, coeffsPerRun, q, values, metas, seed^run)
		if err != nil {
			return nil, err
		}
		segs, err := trace.SegmentEncryptionTrace(tr, coeffsPerRun, 8)
		if err != nil {
			return nil, err
		}
		for i := 1; i < len(segs)-1; i++ {
			rawSegs = append(rawSegs, segs[i])
			labels = append(labels, int(values[i]))
			if needed[int(values[i])] > 0 {
				needed[int(values[i])]--
				remaining--
			}
		}
	}
	length := len(rawSegs[0].Samples)
	for _, s := range rawSegs {
		if len(s.Samples) < length {
			length = len(s.Samples)
		}
	}
	signSet := &trace.Set{}
	posSet := &trace.Set{}
	negSet := &trace.Set{}
	for i, s := range rawSegs {
		tr := tailAlign(s.Samples, length)
		v := labels[i]
		signSet.Append(tr, sca.SignOf(v))
		switch {
		case v > 0:
			posSet.Append(tr, v)
		case v < 0:
			negSet.Append(tr, v)
		}
	}
	opts := sca.DefaultTemplateOptions()
	opts.POICount = 24
	opts.MinSpacing = 1
	signTmpl, err := sca.BuildTemplates(signSet, opts)
	if err != nil {
		return nil, err
	}
	posTmpl, err := sca.BuildTemplates(posSet, opts)
	if err != nil {
		return nil, err
	}
	negTmpl, err := sca.BuildTemplates(negSet, opts)
	if err != nil {
		return nil, err
	}
	cls := &CoefficientClassifier{
		Length: length, MaxAbsValue: maxAbs,
		Sign: signTmpl, Pos: posTmpl, Neg: negTmpl,
	}

	// Attack fresh masked traces.
	values, metas := cn.SamplePoly(metaPRNG, attackCoeffs)
	values = append(values, 0)
	metas = append(metas, sampler.SampleMeta{})
	tr, err := CaptureMasked(dev, attackCoeffs+1, q, values, metas, seed^0xFEED)
	if err != nil {
		return nil, err
	}
	segs, err := trace.SegmentEncryptionTrace(tr, attackCoeffs+1, 8)
	if err != nil {
		return nil, err
	}
	res, err := cls.AttackSegmentsCtx(context.Background(), segs[:attackCoeffs])
	if err != nil {
		return nil, err
	}
	valueAcc, signAcc, err := res.Accuracy(values[:attackCoeffs])
	if err != nil {
		return nil, err
	}
	return &MaskingEvaluation{SignAccuracy: signAcc, ValueAccuracy: valueAcc}, nil
}

// SecondOrderStudy quantifies the masking order: fixed-vs-random t-tests
// on the share-store region, first-order (raw samples) versus second-order
// (centered products). A sound first-order masked implementation is clean
// at first order there and leaks at second order.
type SecondOrderStudy struct {
	FirstOrderMaxT  float64
	SecondOrderMaxT float64
}

// RunSecondOrderStudy captures masked-kernel traces with the coefficient
// pinned to fixedValue vs drawn from the positive range (same branch, so
// control flow cancels) and compares first- and second-order statistics on
// the post-load region.
func RunSecondOrderStudy(dev *Device, q uint64, fixedValue int64, perClass int, seed uint64) (*SecondOrderStudy, error) {
	if fixedValue <= 0 {
		return nil, fmt.Errorf("core: fixed value must be positive (the study holds the branch constant)")
	}
	if perClass < 20 {
		return nil, fmt.Errorf("core: need at least 20 traces per class")
	}
	const coeffsPerRun = 18
	prng := sampler.NewXoshiro256(seed)

	collect := func(class int, count int) ([]trace.Trace, error) {
		var out []trace.Trace
		run := uint64(0)
		for len(out) < count {
			run++
			values := make([]int64, coeffsPerRun)
			for i := range values {
				if class == 0 {
					values[i] = fixedValue
				} else {
					values[i] = int64(1 + sampler.Uint64Below(prng, 14)) // positive random
				}
			}
			metas := make([]sampler.SampleMeta, coeffsPerRun) // constant timing
			tr, err := CaptureMasked(dev, coeffsPerRun, q, values, metas, seed^(run*2+uint64(class)))
			if err != nil {
				return nil, err
			}
			segs, err := trace.SegmentEncryptionTrace(tr, coeffsPerRun, 8)
			if err != nil {
				return nil, err
			}
			for i := 1; i < len(segs)-1 && len(out) < count; i++ {
				out = append(out, segs[i].Samples)
			}
		}
		return out, nil
	}

	fixed, err := collect(0, perClass)
	if err != nil {
		return nil, err
	}
	random, err := collect(1, perClass)
	if err != nil {
		return nil, err
	}

	// Tail-align and strip the sampler-load region (the raw value transits
	// a register there; the masking claim concerns the shares).
	minLen := len(fixed[0])
	for _, tr := range append(fixed, random...) {
		if len(tr) < minLen {
			minLen = len(tr)
		}
	}
	window := minLen - (dev.WaitBase + 5)
	if window < 8 {
		return nil, fmt.Errorf("core: segment too short")
	}
	all := make([]trace.Trace, 0, len(fixed)+len(random))
	labels := make([]int, 0, len(fixed)+len(random))
	for _, tr := range fixed {
		all = append(all, tailAlign(tr, window))
		labels = append(labels, 0)
	}
	for _, tr := range random {
		all = append(all, tailAlign(tr, window))
		labels = append(labels, 1)
	}

	firstSet := &trace.Set{Traces: all, Labels: labels}
	t1, err := sca.TTest(firstSet, 0, 1)
	if err != nil {
		return nil, err
	}
	study := &SecondOrderStudy{}
	for _, v := range t1 {
		if v > study.FirstOrderMaxT {
			study.FirstOrderMaxT = v
		}
	}

	products, err := sca.SecondOrderPreprocess(all, 12)
	if err != nil {
		return nil, err
	}
	secondSet := &trace.Set{Traces: products, Labels: labels}
	t2, err := sca.TTest(secondSet, 0, 1)
	if err != nil {
		return nil, err
	}
	for _, v := range t2 {
		if v > study.SecondOrderMaxT {
			study.SecondOrderMaxT = v
		}
	}
	return study, nil
}
