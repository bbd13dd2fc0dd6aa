package core

import (
	"context"
	"fmt"
	"sync"

	"reveal/internal/obs"
	"reveal/internal/sampler"
	"reveal/internal/sca"
	"reveal/internal/trace"
)

// ProfileOptions configures the template-building campaign (§IV-B: the
// paper used 220,000 profiling executions; the defaults here are scaled to
// keep tests fast — raise TracesPerValue to approach the paper's scale).
type ProfileOptions struct {
	// Q is the coefficient modulus of the target parameter set.
	Q uint64
	// Sigma and MaxDeviation configure the Gaussian the device samples.
	Sigma, MaxDeviation float64
	// MaxAbsValue is the largest |coefficient| to build templates for
	// (paper: values beyond ±14 were never observed in 220k draws).
	MaxAbsValue int
	// TracesPerValue is how many labeled sub-traces to collect per value.
	TracesPerValue int
	// CoeffsPerRun is how many same-valued coefficients each profiling run
	// samples; interior segments avoid edge effects.
	CoeffsPerRun int
	// MetaSeed seeds the synthetic timing metadata.
	MetaSeed uint64
	// Templates configures the sca layer.
	Templates sca.TemplateOptions
}

// DefaultProfileOptions returns a configuration matched to the paper's
// parameter set, at test-friendly scale.
func DefaultProfileOptions() ProfileOptions {
	return ProfileOptions{
		Q:              132120577,
		Sigma:          sampler.DefaultSigma,
		MaxDeviation:   sampler.DefaultMaxDeviation,
		MaxAbsValue:    14,
		TracesPerValue: 30,
		CoeffsPerRun:   18,
		MetaSeed:       0xf0f1,
		Templates:      sca.DefaultTemplateOptions(),
	}
}

// HighAccuracyProfileOptions returns the richer campaign used with the
// low-noise device for the end-to-end recovery demonstration.
func HighAccuracyProfileOptions() ProfileOptions {
	o := DefaultProfileOptions()
	o.TracesPerValue = 120
	o.Templates.POICount = 28
	o.Templates.MinSpacing = 1
	return o
}

// ProfilingSets holds the labeled, tail-aligned trace sets a profiling
// campaign produces: the sign (branch) set over {−1, 0, +1} and the
// positive/negative value sets. Training consumes them; the leakage
// diagnostics (Diagnose) assess them.
type ProfilingSets struct {
	// Length is the common tail-aligned sub-trace length.
	Length int
	Sign   *trace.Set
	Pos    *trace.Set
	Neg    *trace.Set
}

// Profile runs the profiling campaign on the device: for every coefficient
// value in [−MaxAbsValue, MaxAbsValue] it pins the sampler output to that
// value, captures traces, segments them, and trains the sign and per-sign
// value templates.
func Profile(dev *Device, opts ProfileOptions) (*CoefficientClassifier, error) {
	return ProfileCtx(context.Background(), dev, opts)
}

// ProfileCtx is Profile with cancellation: the collection loop and the
// training stage both abort at the next stage boundary once ctx is done.
func ProfileCtx(ctx context.Context, dev *Device, opts ProfileOptions) (*CoefficientClassifier, error) {
	sp := obs.StartSpanCtx(ctx, "profile")
	defer sp.End()
	sets, err := CollectProfilingSets(ctx, dev, opts, sp)
	if err != nil {
		return nil, err
	}
	return TrainClassifier(ctx, sets, opts, sp)
}

// CollectProfilingSets runs the capture half of the profiling campaign and
// returns the labeled sets; ctx is checked once per capture run. The
// collection is timed as a "collect" child of parent (nil parent is fine —
// the child span is then a no-op).
func CollectProfilingSets(ctx context.Context, dev *Device, opts ProfileOptions, parent *obs.Span) (*ProfilingSets, error) {
	sp := parent.Child("collect")
	defer sp.End()
	if opts.MaxAbsValue < 1 {
		return nil, fmt.Errorf("core: MaxAbsValue must be >= 1")
	}
	if opts.TracesPerValue < 4 {
		return nil, fmt.Errorf("core: need at least 4 traces per value")
	}
	if opts.CoeffsPerRun < 3 {
		return nil, fmt.Errorf("core: CoeffsPerRun must be >= 3 (interior segments)")
	}
	src, err := FirmwareSource(opts.CoeffsPerRun, FirmwareModulus(opts.Q))
	if err != nil {
		return nil, err
	}
	fw, err := AssembleFirmware(src)
	if err != nil {
		return nil, err
	}
	cn, err := sampler.NewClippedNormal(opts.Sigma, opts.MaxDeviation)
	if err != nil {
		return nil, err
	}
	metaPRNG := sampler.NewXoshiro256(opts.MetaSeed)

	// Collection plan: every value in [−max, max] must appear
	// TracesPerValue times in interior positions. Values are interleaved
	// within each run so the register/bus history during profiling matches
	// the mixed-value history the attack will see (profiling with constant
	// values would bias the Hamming-distance terms).
	needed := map[int]int{}
	remaining := 0
	for v := -opts.MaxAbsValue; v <= opts.MaxAbsValue; v++ {
		needed[v] = opts.TracesPerValue
		remaining += opts.TracesPerValue
	}
	nextLabel := -opts.MaxAbsValue
	advance := func() int {
		for tries := 0; tries <= 2*opts.MaxAbsValue+1; tries++ {
			v := nextLabel
			nextLabel++
			if nextLabel > opts.MaxAbsValue {
				nextLabel = -opts.MaxAbsValue
			}
			if needed[v] > 0 {
				return v
			}
		}
		// Everything filled; uniform filler.
		return int(sampler.Uint64Below(metaPRNG, uint64(2*opts.MaxAbsValue+1))) - opts.MaxAbsValue
	}

	obs.Log().Info("profiling campaign started",
		"values", 2*opts.MaxAbsValue+1, "traces_per_value", opts.TracesPerValue,
		"coeffs_per_run", opts.CoeffsPerRun)
	target := remaining
	lastLogged := remaining
	var rawSegs []trace.Segment
	var labels []int
	for remaining > 0 {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: profiling canceled with %d/%d segments collected: %w",
				target-remaining, target, err)
		}
		values := make([]int64, opts.CoeffsPerRun)
		// Edge positions get uniform filler (their segments are discarded).
		values[0] = int64(advance())
		values[len(values)-1] = int64(advance())
		for i := 1; i < len(values)-1; i++ {
			values[i] = int64(advance())
		}
		// Shuffle so neighbor pairs vary across runs (the register history
		// seen by the templates must not encode the label ordering).
		for i := len(values) - 1; i > 0; i-- {
			j := int(sampler.Uint64Below(metaPRNG, uint64(i+1)))
			values[i], values[j] = values[j], values[i]
		}
		metas := SyntheticMetas(metaPRNG, cn, opts.CoeffsPerRun)
		_, segs, err := dev.SegmentCapture(fw, values, metas)
		if err != nil {
			return nil, fmt.Errorf("core: profiling: %w", err)
		}
		for i := 1; i < len(segs)-1; i++ {
			v := int(values[i])
			rawSegs = append(rawSegs, segs[i])
			labels = append(labels, v)
			if needed[v] > 0 {
				needed[v]--
				remaining--
			}
		}
		// Progress heartbeat roughly every 10% of the campaign.
		if lastLogged-remaining >= (target+9)/10 {
			lastLogged = remaining
			obs.Log().Debug("profiling progress",
				"collected", target-remaining, "target", target,
				"segments", len(rawSegs))
		}
	}
	sp.AddItems(len(rawSegs))

	// Tail alignment: the fixed-length part of each iteration sits at the
	// end of the segment (the port read at the start is time-variant), so
	// templates are trained on the last `length` samples, with `length` the
	// shortest observed segment.
	length := len(rawSegs[0].Samples)
	for _, s := range rawSegs {
		if len(s.Samples) < length {
			length = len(s.Samples)
		}
	}

	sets := &ProfilingSets{
		Length: length,
		Sign:   &trace.Set{},
		Pos:    &trace.Set{},
		Neg:    &trace.Set{},
	}
	for i, s := range rawSegs {
		tr := tailAlign(s.Samples, length)
		v := labels[i]
		sets.Sign.Append(tr, sca.SignOf(v))
		switch {
		case v > 0:
			sets.Pos.Append(tr, v)
		case v < 0:
			sets.Neg.Append(tr, v)
		}
	}
	return sets, nil
}

// TrainClassifier builds the sign and per-sign value templates from
// collected profiling sets — the training half of Profile, timed as a
// "train" child of parent and abandoned if ctx is already done. The three
// template sets (sign, positive, negative) are independent, so they are
// trained concurrently — training is the per-class half of the profiling
// cost and parallelizes cleanly.
func TrainClassifier(ctx context.Context, sets *ProfilingSets, opts ProfileOptions, parent *obs.Span) (*CoefficientClassifier, error) {
	sp := parent.Child("train")
	sp.AddItems(sets.Sign.Len())
	defer sp.End()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: training canceled: %w", err)
	}
	var wg sync.WaitGroup
	type trained struct {
		tmpl *sca.Templates
		err  error
	}
	train := func(dst *trained, set *trace.Set, name string) {
		defer wg.Done()
		t, err := sca.BuildTemplates(set, opts.Templates)
		if err != nil {
			dst.err = fmt.Errorf("core: building %s templates: %w", name, err)
			return
		}
		dst.tmpl = t
	}
	var sign, pos, neg trained
	wg.Add(3)
	go train(&sign, sets.Sign, "sign")
	go train(&pos, sets.Pos, "positive")
	go train(&neg, sets.Neg, "negative")
	wg.Wait()
	for _, r := range []*trained{&sign, &pos, &neg} {
		if r.err != nil {
			return nil, r.err
		}
	}
	return &CoefficientClassifier{
		Length:      sets.Length,
		MaxAbsValue: opts.MaxAbsValue,
		Sign:        sign.tmpl,
		Pos:         pos.tmpl,
		Neg:         neg.tmpl,
	}, nil
}
