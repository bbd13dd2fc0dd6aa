// Package experiments reproduces every table and figure of the paper's
// evaluation section. Each Run* function is self-contained: it builds the
// device, runs the campaign at the configured scale, and returns the
// structures the paper reports. The cmd/ tools and the benchmark harness
// are thin wrappers around these functions.
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

// Table2Row is one row of Table II: a measurement's probability table with
// the centered mean and variance columns.
type Table2Row struct {
	Secret   int
	Probs    core.Posterior
	Centered float64
	Variance float64
}

// RunTable2 reproduces Table II: for each secret value in [-2, 2] it finds
// a measurement of that value in the attack output and reports its
// probability table (the paper's "guessing probabilities derived from
// selected measurements").
func RunTable2(out *core.AttackResult, truth []int64) ([]Table2Row, error) {
	wanted := []int{0, 1, -1, 2, -2}
	var rows []Table2Row
	for _, w := range wanted {
		found := false
		for i, tv := range truth {
			if int(tv) != w {
				continue
			}
			h := dbdd.HintFromProbabilities(out.Probs[i].Labels, out.Probs[i].P)
			rows = append(rows, Table2Row{
				Secret: w, Probs: out.Probs[i], Centered: h.Mean, Variance: h.Variance,
			})
			found = true
			break
		}
		if !found {
			return nil, fmt.Errorf("experiments: no measurement of secret %d in this attack", w)
		}
	}
	return rows, nil
}

// Table3Result carries the Table III numbers.
type Table3Result struct {
	WithoutHintsBikz float64
	WithHintsBikz    float64
	WithoutHintsBits float64
	WithHintsBits    float64
}

// RunTable3 reproduces Table III: the primal-attack cost without hints and
// with the attack's full per-coefficient hints, for SEAL-128
// (q=132120577, n=1024, σ=3.2).
func RunTable3(params *bfv.Parameters, res *core.AttackResult) (*Table3Result, error) {
	loss, err := core.EstimateFullHints(params, res)
	if err != nil {
		return nil, err
	}
	return &Table3Result{
		WithoutHintsBikz: loss.BaselineBikz,
		WithHintsBikz:    loss.HintedBikz,
		WithoutHintsBits: loss.BaselineBits,
		WithHintsBits:    loss.HintedBits,
	}, nil
}

// Table4Result carries the Table IV numbers.
type Table4Result struct {
	WithoutHintsBikz   float64
	WithHintsBikz      float64
	WithGuessesBikz    float64
	NumberOfGuesses    int
	SuccessProbability float64
}

// RunTable4 reproduces Table IV: the branch-only adversary (signs and
// zeroes only), plus one guess on the most confident remaining coordinate.
func RunTable4(params *bfv.Parameters, res *core.AttackResult) (*Table4Result, error) {
	loss, err := core.EstimateSignOnly(params, res)
	if err != nil {
		return nil, err
	}
	guessBikz, guess, err := core.SignOnlyWithGuess(params, res)
	if err != nil {
		return nil, err
	}
	return &Table4Result{
		WithoutHintsBikz:   loss.BaselineBikz,
		WithHintsBikz:      loss.HintedBikz,
		WithGuessesBikz:    guessBikz,
		NumberOfGuesses:    1,
		SuccessProbability: guess.SuccessProb,
	}, nil
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

// FormatTable2 renders Table II.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table II — guessing probabilities from selected measurements\n")
	fmt.Fprintf(&b, "%7s", "secret")
	for v := -2; v <= 2; v++ {
		fmt.Fprintf(&b, "%12d", v)
	}
	fmt.Fprintf(&b, "%12s%12s\n", "centered", "variance")
	for _, row := range rows {
		fmt.Fprintf(&b, "%7d", row.Secret)
		for v := -2; v <= 2; v++ {
			fmt.Fprintf(&b, "%12.3g", row.Probs.At(v))
		}
		fmt.Fprintf(&b, "%12.4g%12.4g\n", row.Centered, row.Variance)
	}
	return b.String()
}

// FormatTable3 renders Table III next to the paper's numbers.
func FormatTable3(r *Table3Result) string {
	var b strings.Builder
	b.WriteString("Table III — cost of attack with/without hints (SEAL-128)\n")
	fmt.Fprintf(&b, "%-32s %10s %14s\n", "", "measured", "paper")
	fmt.Fprintf(&b, "%-32s %10.2f %14s\n", "attack without hints (bikz)", r.WithoutHintsBikz, "382.25")
	fmt.Fprintf(&b, "%-32s %10.2f %14s\n", "attack with hints (bikz)", r.WithHintsBikz, "12.2")
	fmt.Fprintf(&b, "%-32s %10.1f %14s\n", "security without hints (bits)", r.WithoutHintsBits, "128")
	fmt.Fprintf(&b, "%-32s %10.1f %14s\n", "security with hints (bits)", r.WithHintsBits, "4.4")
	return b.String()
}

// FormatTable4 renders Table IV next to the paper's numbers.
func FormatTable4(r *Table4Result) string {
	var b strings.Builder
	b.WriteString("Table IV — branch-only adversary (SEAL-128)\n")
	fmt.Fprintf(&b, "%-36s %10s %14s\n", "", "measured", "paper")
	fmt.Fprintf(&b, "%-36s %10.2f %14s\n", "attack without hints (bikz)", r.WithoutHintsBikz, "382.25")
	fmt.Fprintf(&b, "%-36s %10.2f %14s\n", "attack with hints (bikz)", r.WithHintsBikz, "253.29")
	fmt.Fprintf(&b, "%-36s %10.2f %14s\n", "attack with hints & guesses (bikz)", r.WithGuessesBikz, "252.83")
	fmt.Fprintf(&b, "%-36s %10d %14s\n", "number of guesses", r.NumberOfGuesses, "1")
	fmt.Fprintf(&b, "%-36s %9.0f%% %14s\n", "success probability", 100*r.SuccessProbability, "20%")
	return b.String()
}

// CrossDeviceResult quantifies template portability: profile on device A,
// attack device A (baseline) and a process-variation sibling B (§V-B of
// the paper: "we limit our attack to a single device; cross-device attacks
// may need a more complicated, machine-learning-based profiling").
type CrossDeviceResult struct {
	SameDeviceValueAcc  float64
	CrossDeviceValueAcc float64
	SameDeviceSignAcc   float64
	CrossDeviceSignAcc  float64
}

// RunCrossDevice profiles on one device and attacks both it and a sibling
// whose leakage coefficients differ by ±spread.
func RunCrossDevice(cfg Config, spread float64) (*CrossDeviceResult, error) {
	s, err := NewSession(cfg)
	if err != nil {
		return nil, err
	}
	sibling := s.Device.Perturb(cfg.Seed^0xDEAD, spread)

	attack := func(dev *core.Device) (valueAcc, signAcc float64, err error) {
		pt := s.Params.NewPlaintext()
		cap, err := core.CaptureEncryption(dev, s.Params, s.Encryptor, pt)
		if err != nil {
			return 0, 0, err
		}
		out, err := s.Classifier.Attack(cap, s.Params.N)
		if err != nil {
			return 0, 0, err
		}
		return out.E2.Accuracy(cap.Truth.E2)
	}
	res := &CrossDeviceResult{}
	if res.SameDeviceValueAcc, res.SameDeviceSignAcc, err = attack(s.Device); err != nil {
		return nil, err
	}
	if res.CrossDeviceValueAcc, res.CrossDeviceSignAcc, err = attack(sibling); err != nil {
		return nil, err
	}
	return res, nil
}

// SweepRow is one parameter set in the security sweep.
type SweepRow struct {
	N             int
	LogQ          int
	BaselineBikz  float64
	FullHintsBikz float64
	SignHintsBikz float64
	BaselineBits  float64
	FullHintsBits float64
}

// RunSecuritySweep estimates the attack's impact across the SEAL default
// parameter sets (the paper: "our attack is applicable to all security
// levels and values of n"). Hints are modeled at the paper's quality:
// perfect values for the full attack, half-normal conditioning for signs.
func RunSecuritySweep(degrees []int, seed uint64) ([]SweepRow, error) {
	var rows []SweepRow
	for _, n := range degrees {
		params, err := bfv.DefaultParameters(n, 256)
		if err != nil {
			return nil, err
		}
		q := 1.0
		logQ := 0
		for _, m := range params.Moduli {
			q *= float64(m)
		}
		logQ = params.Q().BitLen()
		sigma := params.Sigma

		fresh := func() (*dbdd.Instance, error) {
			return dbdd.NewLWEInstance(n, n, q, 2.0/3.0, sigma*sigma)
		}
		base, err := fresh()
		if err != nil {
			return nil, err
		}
		baseBikz, err := base.EstimateBikz()
		if err != nil {
			return nil, err
		}
		cn, err := sampler.NewClippedNormal(sigma, 12.8*sigma)
		if err != nil {
			return nil, err
		}
		errs, _ := cn.SamplePoly(sampler.NewXoshiro256(seed^uint64(n)), n)

		full, err := fresh()
		if err != nil {
			return nil, err
		}
		signs, err := fresh()
		if err != nil {
			return nil, err
		}
		for i, e := range errs {
			if err := full.PerfectHint(n+i, float64(e)); err != nil {
				return nil, err
			}
			s := 0
			if e > 0 {
				s = 1
			} else if e < 0 {
				s = -1
			}
			if err := signs.SignHint(n+i, s); err != nil {
				return nil, err
			}
		}
		fullBikz, err := full.EstimateBikz()
		if err != nil {
			return nil, err
		}
		signBikz, err := signs.EstimateBikz()
		if err != nil {
			return nil, err
		}
		rows = append(rows, SweepRow{
			N: n, LogQ: logQ,
			BaselineBikz:  baseBikz,
			FullHintsBikz: fullBikz,
			SignHintsBikz: signBikz,
			BaselineBits:  dbdd.BikzToBits(baseBikz),
			FullHintsBits: dbdd.BikzToBits(fullBikz),
		})
	}
	return rows, nil
}

// FormatSweep renders the sweep as a table.
func FormatSweep(rows []SweepRow) string {
	var b strings.Builder
	b.WriteString("Security sweep across SEAL default parameter sets\n")
	fmt.Fprintf(&b, "%6s %6s %14s %14s %14s\n", "n", "logQ", "baseline", "sign hints", "full hints")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d %6d %9.1f bikz %9.1f bikz %9.1f bikz\n",
			r.N, r.LogQ, r.BaselineBikz, r.SignHintsBikz, r.FullHintsBikz)
	}
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
