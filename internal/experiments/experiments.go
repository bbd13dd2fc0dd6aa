// Package experiments reproduces every table and figure of the paper's
// evaluation section. Claims is the registry of those results: each claim
// measures one of them from its own seeds and checks the paper's shape on
// the measurement, and Render lays the measurements out as EXPERIMENTS.md's
// tables. The Run* functions and Session are the campaigns the claims and
// the cmd/ tools share.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"reveal/internal/bfv"
	"reveal/internal/core"
	"reveal/internal/dbdd"
	"reveal/internal/obs"
	"reveal/internal/sampler"
	"reveal/internal/sca"
	"reveal/internal/trace"
)

// Config scales the campaigns. The paper used 220,000 profiling runs and
// 25,000 attack measurements; the defaults here reproduce the structure at
// a laptop-friendly scale and can be raised arbitrarily.
type Config struct {
	// Seed makes the whole experiment deterministic.
	Seed uint64
	// ProfileTracesPerValue is the number of profiling sub-traces per
	// coefficient value (paper ≈ 220000/83 per value).
	ProfileTracesPerValue int
	// AttackEncryptions is how many single-trace attacks to run; each
	// classifies 2·n coefficients (e1 and e2).
	AttackEncryptions int
	// LowNoise selects the favourable measurement setup used for the
	// end-to-end recovery demonstration.
	LowNoise bool
}

// DefaultConfig returns the test-scale configuration.
func DefaultConfig() Config {
	return Config{Seed: 1, ProfileTracesPerValue: 40, AttackEncryptions: 3}
}

// Session holds a profiled attack setup reused across experiments.
type Session struct {
	Config     Config
	Device     *core.Device
	Classifier *core.CoefficientClassifier
	Params     *bfv.Parameters
	SecretKey  *bfv.SecretKey
	PublicKey  *bfv.PublicKey
	Encryptor  *bfv.Encryptor
}

// NewSession profiles the device and prepares the BFV instance with the
// paper's parameters (n=1024, q=132120577, σ=3.19, t=256).
func NewSession(cfg Config) (*Session, error) {
	var dev *core.Device
	var popts core.ProfileOptions
	if cfg.LowNoise {
		dev = core.NewLowNoiseDevice(cfg.Seed)
		popts = core.HighAccuracyProfileOptions()
	} else {
		dev = core.NewDevice(cfg.Seed)
		popts = core.DefaultProfileOptions()
	}
	if cfg.ProfileTracesPerValue > 0 {
		popts.TracesPerValue = cfg.ProfileTracesPerValue
	}
	obs.Log().Info("session setup",
		"seed", cfg.Seed, "low_noise", cfg.LowNoise,
		"profile_traces_per_value", popts.TracesPerValue)
	profStart := time.Now()
	cls, err := core.Profile(dev, popts)
	if err != nil {
		return nil, fmt.Errorf("experiments: profiling: %w", err)
	}
	obs.Log().Info("profiling done",
		"duration", time.Since(profStart), "subtrace_length", cls.Length)
	params := bfv.PaperParameters()
	prng := sampler.NewXoshiro256(cfg.Seed ^ 0xABCD)
	kg := bfv.NewKeyGenerator(params, prng)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	enc := bfv.NewEncryptor(params, pk, prng)
	return &Session{
		Config: cfg, Device: dev, Classifier: cls,
		Params: params, SecretKey: sk, PublicKey: pk, Encryptor: enc,
	}, nil
}

// Table1Result carries the confusion matrix of the template attack plus
// the two headline rates.
type Table1Result struct {
	Confusion    *sca.Confusion
	SignAccuracy float64
	ZeroAccuracy float64
	Coefficients int
	// LastOutcome and LastCapture let downstream experiments (Table II-IV)
	// reuse the final attack.
	LastOutcome *core.AttackOutcome
	LastCapture *core.EncryptionCapture
}

// RunTable1 reproduces Table I: attack success percentages per coefficient
// value over repeated single-trace attacks.
func (s *Session) RunTable1() (*Table1Result, error) {
	conf := sca.NewConfusion()
	res := &Table1Result{Confusion: conf}
	signOK, total := 0, 0
	zeroOK, zeroTotal := 0, 0
	for run := 0; run < s.Config.AttackEncryptions; run++ {
		pt := s.Params.NewPlaintext()
		pt.Coeffs[0] = uint64(run) % s.Params.T
		cap, err := core.CaptureEncryption(s.Device, s.Params, s.Encryptor, pt)
		if err != nil {
			return nil, err
		}
		out, err := s.Classifier.Attack(cap, s.Params.N)
		if err != nil {
			return nil, err
		}
		score := func(r *core.AttackResult, truth []int64) {
			for i, v := range r.Values {
				tv := int(truth[i])
				conf.Add(tv, v)
				total++
				if r.Signs[i] == sca.SignOf(tv) {
					signOK++
				}
				if tv == 0 {
					zeroTotal++
					if v == 0 {
						zeroOK++
					}
				}
			}
		}
		score(out.E1, cap.Truth.E1)
		score(out.E2, cap.Truth.E2)
		core.EmitOutcomeEvents(context.Background(), out, cap)
		res.LastOutcome = out
		res.LastCapture = cap
		obs.Log().Debug("attack encryption done",
			"run", run+1, "of", s.Config.AttackEncryptions,
			"coefficients_scored", total)
	}
	res.Coefficients = total
	if total > 0 {
		res.SignAccuracy = float64(signOK) / float64(total)
	}
	if zeroTotal > 0 {
		res.ZeroAccuracy = float64(zeroOK) / float64(zeroTotal)
	}
	return res, nil
}

// Fig3Result carries the Fig. 3 data: the full trace portion over three
// coefficient samplings (a) and the per-branch sub-traces (b).
type Fig3Result struct {
	Full      trace.Trace
	Zero      trace.Trace
	Positive  trace.Trace
	Negative  trace.Trace
	PeakCount int
}

// RunFig3 reproduces Fig. 3: a trace portion with one positive, one
// negative, and one zero coefficient sampling, segmented by the visible
// peaks.
func RunFig3(seed uint64) (*Fig3Result, error) {
	dev := core.NewDevice(seed)
	// Three coefficients (+ sentinel): noise > 0, noise < 0, noise = 0.
	values := []int64{3, -3, 0, 0}
	src, err := core.FirmwareSource(len(values), bfv.PaperQ)
	if err != nil {
		return nil, err
	}
	fw, err := core.AssembleFirmware(src)
	if err != nil {
		return nil, err
	}
	cn := sampler.DefaultClippedNormal()
	metas := core.SyntheticMetas(sampler.NewXoshiro256(seed^0x33), cn, len(values))
	tr, segs, err := dev.SegmentCapture(fw, values, metas)
	if err != nil {
		return nil, err
	}
	return &Fig3Result{
		Full:      tr,
		Positive:  segs[0].Samples,
		Negative:  segs[1].Samples,
		Zero:      segs[2].Samples,
		PeakCount: len(segs),
	}, nil
}

// FormatTable1 renders the Table I layout.
func FormatTable1(r *Table1Result, lo, hi int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I — attack success percentages (%d coefficients)\n", r.Coefficients)
	fmt.Fprintf(&b, "sign accuracy: %.1f%%   zero accuracy: %.1f%%\n",
		100*r.SignAccuracy, 100*r.ZeroAccuracy)
	b.WriteString(r.Confusion.FormatTable(lo, hi))
	return b.String()
}

// TimingResult quantifies §III-C's time-variance claim: the distribution
// of per-coefficient segment lengths across one sampling run. Fixed-stride
// windowing would require all lengths equal; the rejection sampling makes
// them vary.
type TimingResult struct {
	Lengths   []int
	Min, Max  int
	Mean      float64
	DistinctN int
}

// RunTimingVariance captures one n-coefficient sampling run and reports
// the per-segment length statistics.
func RunTimingVariance(n int, seed uint64) (*TimingResult, error) {
	dev := core.NewDevice(seed)
	src, err := core.FirmwareSource(n, bfv.PaperQ)
	if err != nil {
		return nil, err
	}
	fw, err := core.AssembleFirmware(src)
	if err != nil {
		return nil, err
	}
	cn := sampler.DefaultClippedNormal()
	prng := sampler.NewXoshiro256(seed ^ 0xA5)
	values, metas := cn.SamplePoly(prng, n)
	_, segs, err := dev.SegmentCapture(fw, values, metas)
	if err != nil {
		return nil, err
	}
	res := &TimingResult{Min: int(^uint(0) >> 1)}
	distinct := map[int]bool{}
	total := 0
	for _, s := range segs[:len(segs)-1] { // last segment includes the tail
		l := len(s.Samples)
		res.Lengths = append(res.Lengths, l)
		if l < res.Min {
			res.Min = l
		}
		if l > res.Max {
			res.Max = l
		}
		distinct[l] = true
		total += l
	}
	res.Mean = float64(total) / float64(len(res.Lengths))
	res.DistinctN = len(distinct)
	return res, nil
}

// IdealHints builds the primal-attack DBDD instance of LWE with n samples
// of dimension n, modulus q and error width sigma, and integrates one hint
// per error coordinate of an error vector drawn from the paper's clipped
// Gaussian at seed, at the quality the paper's Table II posteriors imply:
// its value ("full", a perfect hint) or only its sign ("sign"). "none"
// integrates nothing.
func IdealHints(n int, q, sigma float64, hints string, seed uint64) (*dbdd.Instance, error) {
	in, err := dbdd.NewLWEInstance(n, n, q, 2.0/3.0, sigma*sigma)
	if err != nil {
		return nil, err
	}
	switch hints {
	case "none":
		return in, nil
	case "sign", "full":
	default:
		return nil, fmt.Errorf("unknown hint model %q", hints)
	}
	cn, err := sampler.NewClippedNormal(sigma, 12.8*sigma)
	if err != nil {
		return nil, err
	}
	errs, _ := cn.SamplePoly(sampler.NewXoshiro256(seed), n)
	for i, e := range errs {
		if hints == "full" {
			err = in.PerfectHint(n+i, float64(e))
		} else {
			err = in.SignHint(n+i, sca.SignOf(int(e)))
		}
		if err != nil {
			return nil, err
		}
	}
	return in, nil
}
