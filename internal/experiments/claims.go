package experiments

import (
	"fmt"
	"math"
	"slices"

	"reveal/internal/bfv"
	"reveal/internal/core"
	"reveal/internal/dbdd"
	"reveal/internal/sampler"
	"reveal/internal/sca"
)

// Values are a claim's measured quantities by name.
type Values map[string]float64

// Shape is one qualitative property of the paper's result. Absolute numbers
// are device-specific, so a measurement reproduces the paper when every
// shape of its claim holds.
type Shape struct {
	Text  string
	Holds func(Values) bool
}

// Claim is one result of the paper's evaluation and how this reproduction
// measures it. Run builds every device, session, key and PRNG it uses from
// its own constant seeds, so its values never depend on which claims ran
// before it or in what order.
type Claim struct {
	ID     string
	Paper  string
	Run    func() (Values, error)
	Shapes []Shape
}

// Result is one claim's measurement and the shapes it failed.
type Result struct {
	Claim  Claim
	Values Values
	Failed []string
}

// RunClaims measures each claim in order and checks its shapes. It stops
// at the first claim whose run fails: that claim has nothing to check.
func RunClaims(claims []Claim) ([]Result, error) {
	results := make([]Result, 0, len(claims))
	for _, c := range claims {
		v, err := c.Run()
		if err != nil {
			return nil, fmt.Errorf("experiments: claim %s: %w", c.ID, err)
		}
		r := Result{Claim: c, Values: v}
		for _, s := range c.Shapes {
			if !s.Holds(v) {
				r.Failed = append(r.Failed, s.Text)
			}
		}
		results = append(results, r)
	}
	return results, nil
}

// The paper's SEAL-128 instance (q=132120577, n=1024, σ=3.2) as the
// ideal-hint claims estimate it, with the error vector drawn at seed 1.
const (
	sealN     = 1024
	sealQ     = 132120577
	sealSigma = 3.2
	idealSeed = 1
)

// Claims returns the registry in the order EXPERIMENTS.md presents it.
func Claims() []Claim {
	return []Claim{
		{ID: "table1", Paper: "sign and zero 100%; negatives ≈ 70%, positives ≈ 22%", Run: runTable1Claim, Shapes: []Shape{
			{"sign recovery is 100%", func(v Values) bool { return v["sign_acc"] == 1 }},
			{"zero recovery is 100%", func(v Values) bool { return v["zero_acc"] == 1 }},
			{"negatives beat positives", func(v Values) bool { return v["neg_acc"] > v["pos_acc"] }},
			{"every e1 and e2 coefficient is scored", func(v Values) bool { return v["coefficients"] == 2*sealN }},
		}},
		{ID: "table2", Paper: "posterior on the truth ≈ 1, variance ≈ 0", Run: runTable2Claim, Shapes: []Shape{
			{"the truth carries over half the mass in every row", func(v Values) bool { return v["min_truth_posterior"] > 0.5 }},
			{"the centered column rounds to the secret", func(v Values) bool { return v["max_centered_error"] < 0.5 }},
			{"every variance is ≥ 0", func(v Values) bool { return v["min_variance"] >= 0 }},
		}},
		{ID: "table3-ideal", Paper: "382.25 → 12.2 bikz", Run: runTable3IdealClaim, Shapes: table3Shapes},
		{ID: "table3-attacked", Paper: "382.25 → 12.2 bikz", Run: runTable3AttackedClaim, Shapes: table3Shapes},
		{ID: "table4-ideal", Paper: "382.25 → 253.29 bikz; one guess succeeds 20% of the time", Run: runTable4IdealClaim, Shapes: table4Shapes},
		{ID: "table4-attacked", Paper: "382.25 → 253.29 bikz; one guess succeeds 20% of the time", Run: runTable4AttackedClaim, Shapes: table4Shapes},
		{ID: "fig3", Paper: "one peak per sampling; the branch sub-traces differ", Run: runFig3Claim, Shapes: []Shape{
			{"4 peaks for 3 coefficients + sentinel", func(v Values) bool { return v["peaks"] == 4 }},
			{"the three branch sub-traces are pairwise distinct", func(v Values) bool { return v["distinct_branch_pairs"] == 3 }},
			{"the negative branch (V3) runs longer than the positive one", func(v Values) bool { return v["negative_len"] > v["positive_len"] }},
		}},
		{ID: "timing", Paper: "sampling time varies per coefficient (§III-C)", Run: runTimingClaim, Shapes: []Shape{
			{"one length per coefficient but the last", func(v Values) bool { return v["segments"] == 255 }},
			{"at least 3 distinct lengths", func(v Values) bool { return v["distinct"] >= 3 }},
			{"min < max, mean between them", func(v Values) bool {
				return v["min"] < v["max"] && v["min"] <= v["mean"] && v["mean"] <= v["max"]
			}},
		}},
		{ID: "headline", Paper: "the plaintext falls to one trace (≈ 2^4.4 estimated)", Run: runHeadlineClaim, Shapes: []Shape{
			{"every plaintext is recovered bit for bit", func(v Values) bool { return v["recovered"] == v["messages"] }},
		}},
		{ID: "ablation-poi", Paper: "few POIs suffice; more hit the curse of dimensionality (§III-D)", Run: runPOIClaim, Shapes: []Shape{
			{"4 POIs within 5 points of 12", func(v Values) bool { return v["poi4_acc"] > v["poi12_acc"]-0.05 }},
			{"28 POIs no better than 12", func(v Values) bool { return v["poi28_acc"] <= v["poi12_acc"] }},
		}},
		{ID: "ablation-noise", Paper: "accuracy follows acquisition quality", Run: runNoiseClaim, Shapes: []Shape{
			{"value accuracy falls as σ grows", func(v Values) bool {
				return v["acc_0.002"] > v["acc_0.015"] && v["acc_0.015"] > v["acc_0.05"]
			}},
			{"signs stay at 100% at every σ", func(v Values) bool {
				return v["sign_acc_0.002"] == 1 && v["sign_acc_0.015"] == 1 && v["sign_acc_0.05"] == 1
			}},
		}},
		{ID: "ablation-shuffling", Paper: "shuffling hides positions, not values (§V-A)", Run: runShufflingClaim, Shapes: []Shape{
			{"values leak: multiset accuracy over 50%", func(v Values) bool { return v["multiset_acc"] > 0.5 }},
			{"positions do not: positional accuracy under 10%", func(v Values) bool { return v["positional_acc"] < 0.1 }},
		}},
		{ID: "ablation-patched", Paper: "the SEAL v3.6 branch-free sampler removes V1 (§V-A)", Run: runPatchedClaim, Shapes: []Shape{
			{"sign accuracy below chance (1/3)", func(v Values) bool { return v["sign_acc"] < 1.0/3 }},
		}},
		{ID: "cross-device", Paper: "cross-device attacks need more than templates (§V-B)", Run: runCrossDeviceClaim, Shapes: []Shape{
			{"templates transfer worse to a sibling", func(v Values) bool { return v["cross_value_acc"] < v["same_value_acc"] }},
			{"same-device signs are 100%", func(v Values) bool { return v["same_sign_acc"] == 1 }},
		}},
		{ID: "tvla", Paper: "SEAL v3.6 and later may leak differently (§V-A)", Run: runTVLAClaim, Shapes: []Shape{
			{"the vulnerable kernel fails TVLA", func(v Values) bool { return v["max_t"] > core.TVLAThreshold }},
			{"the branch-free kernel fails it too", func(v Values) bool { return v["max_t_branchless"] > core.TVLAThreshold }},
		}},
		{ID: "sweep", Paper: "the attack applies to every security level and n (§II-A)", Run: runSweepClaim, Shapes: []Shape{
			{"full hints beat sign hints, which beat none, at every n", func(v Values) bool {
				return everyDegree(func(n int) bool {
					return v[sweepKey("full", n)] < v[sweepKey("sign", n)] && v[sweepKey("sign", n)] < v[sweepKey("none", n)]
				})
			}},
			{"full hints leave under 40 bits at every n", func(v Values) bool {
				return everyDegree(func(n int) bool { return dbdd.BikzToBits(v[sweepKey("full", n)]) < 40 })
			}},
		}},
		{ID: "decryption-cpa", Paper: "decryption falls to multi-trace attacks (§II-B)", Run: runDecryptionCPAClaim, Shapes: []Shape{
			{"150 traces recover the whole key", func(v Values) bool { return v["key_recovery"] == 1 }},
		}},
		{ID: "masking", Paper: "masking does not stop single-trace attacks (§V-A)", Run: runMaskingClaim, Shapes: []Shape{
			{"the sign branches survive masking: 100%", func(v Values) bool { return v["sign_acc"] == 1 }},
			{"masked values fall under 50%", func(v Values) bool { return v["value_acc"] < 0.5 }},
		}},
		{ID: "second-order", Paper: "masked shares recombine at second order (§V-A)", Run: runSecondOrderClaim, Shapes: []Shape{
			{"the shares pass first-order TVLA", func(v Values) bool { return v["first_order_max_t"] <= core.TVLAThreshold }},
			{"centered products fail second-order TVLA", func(v Values) bool { return v["second_order_max_t"] > core.TVLAThreshold }},
		}},
		{ID: "profiling-size", Paper: "context for the paper's 220,000-trace profiling", Run: runProfilingSizeClaim, Shapes: []Shape{
			{"40 traces per value beat 10", func(v Values) bool { return v["acc_40"] > v["acc_10"] }},
			{"120 stay within 2 points of 40", func(v Values) bool { return math.Abs(v["acc_120"]-v["acc_40"]) < 0.02 }},
		}},
	}
}

var table3Shapes = []Shape{
	{"the baseline is in the paper's regime: 300–460 bikz", func(v Values) bool {
		return v["baseline_bikz"] >= 300 && v["baseline_bikz"] <= 460
	}},
	{"full hints leave under 60 bikz", func(v Values) bool { return v["hinted_bikz"] < 60 }},
}

var table4Shapes = []Shape{
	{"sign-only hints leave over 250 bikz", func(v Values) bool { return v["hinted_bikz"] > 250 }},
	{"sign hints lower the baseline", func(v Values) bool { return v["hinted_bikz"] < v["baseline_bikz"] }},
	{"a guess does not raise it", func(v Values) bool { return v["guess_bikz"] <= v["hinted_bikz"] }},
	{"one guess succeeds ≈ 20% of the time", func(v Values) bool {
		return v["guess_success"] >= 0.15 && v["guess_success"] <= 0.25
	}},
}

// firstAttack profiles a fresh session at seed 1 and attacks one
// encryption: the default device (Table I's partial accuracy) or the
// low-noise one (Table II's ≈ 1 posteriors).
func firstAttack(lowNoise bool) (*Session, *Table1Result, error) {
	cfg := DefaultConfig()
	cfg.LowNoise = lowNoise
	cfg.AttackEncryptions = 1
	s, err := NewSession(cfg)
	if err != nil {
		return nil, nil, err
	}
	t1, err := s.RunTable1()
	return s, t1, err
}

func runTable1Claim() (Values, error) {
	_, t1, err := firstAttack(false)
	if err != nil {
		return nil, err
	}
	return table1Values(t1), nil
}

// table1Values reads the rates of t1 and its per-value accuracy averaged
// over the values −7..−1 (V2 and V3 leak) and 1..7 (V2 only) that the
// attack saw more than five times.
func table1Values(t1 *Table1Result) Values {
	var negSum, posSum float64
	var negN, posN int
	for v := 1; v <= 7; v++ {
		if t1.Confusion.Total(v) > 5 {
			posSum += t1.Confusion.Accuracy(v)
			posN++
		}
		if t1.Confusion.Total(-v) > 5 {
			negSum += t1.Confusion.Accuracy(-v)
			negN++
		}
	}
	return Values{
		"coefficients": float64(t1.Coefficients),
		"sign_acc":     t1.SignAccuracy,
		"zero_acc":     t1.ZeroAccuracy,
		"value_acc":    t1.Confusion.OverallAccuracy(),
		"neg_acc":      negSum / float64(negN),
		"pos_acc":      posSum / float64(posN),
	}
}

func runTable2Claim() (Values, error) {
	_, t1, err := firstAttack(true)
	if err != nil {
		return nil, err
	}
	return table2Values(t1)
}

// table2Values reads, for each secret in −2..2, the first e2 coefficient
// of t1's last attack that holds it: the posterior on the truth, and the
// centered mean and variance of the hint it gives.
func table2Values(t1 *Table1Result) (Values, error) {
	out, truth := t1.LastOutcome.E2, t1.LastCapture.Truth.E2
	v := Values{"min_truth_posterior": 1, "min_variance": math.Inf(1)}
	sum := 0.0
	for _, secret := range []int{0, 1, -1, 2, -2} {
		i := slices.Index(truth, int64(secret))
		if i < 0 {
			return nil, fmt.Errorf("no measurement of secret %d in this attack", secret)
		}
		p := out.Probs[i].At(secret)
		h := dbdd.HintFromProbabilities(out.Probs[i].Labels, out.Probs[i].P)
		sum += p
		v["min_truth_posterior"] = min(v["min_truth_posterior"], p)
		v["max_centered_error"] = max(v["max_centered_error"], math.Abs(h.Mean-float64(secret)))
		v["min_variance"] = min(v["min_variance"], h.Variance)
		v["max_variance"] = max(v["max_variance"], h.Variance)
	}
	v["mean_truth_posterior"] = sum / 5
	return v, nil
}

func lossValues(loss *dbdd.SecurityLoss) Values {
	return Values{
		"baseline_bikz": loss.BaselineBikz,
		"hinted_bikz":   loss.HintedBikz,
		"baseline_bits": loss.BaselineBits,
		"hinted_bits":   loss.HintedBits,
	}
}

func runTable3AttackedClaim() (Values, error) {
	s, t1, err := firstAttack(true)
	if err != nil {
		return nil, err
	}
	loss, err := core.EstimateFullHints(s.Params, t1.LastOutcome.E2)
	if err != nil {
		return nil, err
	}
	return lossValues(loss), nil
}

// idealBikz estimates the SEAL-128 instance under one ideal-hint model.
func idealBikz(hints string) (float64, *dbdd.Instance, error) {
	in, err := IdealHints(sealN, sealQ, sealSigma, hints, idealSeed)
	if err != nil {
		return 0, nil, err
	}
	bikz, err := in.EstimateBikz()
	return bikz, in, err
}

func runTable3IdealClaim() (Values, error) {
	base, _, err := idealBikz("none")
	if err != nil {
		return nil, err
	}
	hinted, _, err := idealBikz("full")
	if err != nil {
		return nil, err
	}
	return lossValues(&dbdd.SecurityLoss{
		BaselineBikz: base, HintedBikz: hinted,
		BaselineBits: dbdd.BikzToBits(base), HintedBits: dbdd.BikzToBits(hinted),
	}), nil
}

func runTable4AttackedClaim() (Values, error) {
	s, t1, err := firstAttack(false)
	if err != nil {
		return nil, err
	}
	return signOnlyValues(s.Params, t1.LastOutcome.E2)
}

// signOnlyValues estimates the hardness left by the signs of an attacked
// e2, before and after one guess.
func signOnlyValues(params *bfv.Parameters, e2 *core.AttackResult) (Values, error) {
	loss, err := core.EstimateSignOnly(params, e2)
	if err != nil {
		return nil, err
	}
	guessBikz, guess, err := core.SignOnlyWithGuess(params, e2)
	if err != nil {
		return nil, err
	}
	return Values{
		"baseline_bikz": loss.BaselineBikz,
		"hinted_bikz":   loss.HintedBikz,
		"guess_bikz":    guessBikz,
		"guess_success": guess.SuccessProb,
	}, nil
}

func runTable4IdealClaim() (Values, error) {
	base, _, err := idealBikz("none")
	if err != nil {
		return nil, err
	}
	hinted, in, err := idealBikz("sign")
	if err != nil {
		return nil, err
	}
	guess, err := in.GuessBestCoordinateIn(sealN, 2*sealN)
	if err != nil {
		return nil, err
	}
	guessBikz, err := in.EstimateBikz()
	if err != nil {
		return nil, err
	}
	return Values{
		"baseline_bikz": base,
		"hinted_bikz":   hinted,
		"guess_bikz":    guessBikz,
		"guess_success": guess.SuccessProb,
	}, nil
}

func runFig3Claim() (Values, error) { return fig3Values(1) }

func fig3Values(seed uint64) (Values, error) {
	r, err := RunFig3(seed)
	if err != nil {
		return nil, err
	}
	branches := [][]float64{r.Positive, r.Negative, r.Zero}
	distinct := 0
	for i := range branches {
		for j := i + 1; j < len(branches); j++ {
			if !slices.Equal(branches[i], branches[j]) {
				distinct++
			}
		}
	}
	return Values{
		"peaks":                 float64(r.PeakCount),
		"samples":               float64(len(r.Full)),
		"positive_len":          float64(len(r.Positive)),
		"negative_len":          float64(len(r.Negative)),
		"zero_len":              float64(len(r.Zero)),
		"distinct_branch_pairs": float64(distinct),
	}, nil
}

func runTimingClaim() (Values, error) {
	r, err := RunTimingVariance(256, 77)
	if err != nil {
		return nil, err
	}
	return Values{
		"segments": float64(len(r.Lengths)),
		"min":      float64(r.Min),
		"max":      float64(r.Max),
		"mean":     r.Mean,
		"distinct": float64(r.DistinctN),
	}, nil
}

// runHeadlineClaim encrypts two plaintexts whose every coefficient is set,
// attacks each from its one e2 trace, repairs and recovers it (Eq. 2, then
// Eq. 3), and counts a recovery only when every coefficient matches.
func runHeadlineClaim() (Values, error) {
	cfg := DefaultConfig()
	cfg.LowNoise = true
	s, err := NewSession(cfg)
	if err != nil {
		return nil, err
	}
	const messages = 2
	v := Values{"messages": messages}
	for msg := 0; msg < messages; msg++ {
		pt := s.Params.NewPlaintext()
		for i := range pt.Coeffs {
			pt.Coeffs[i] = uint64((i*31 + msg*7) % int(s.Params.T))
		}
		cap, err := core.CaptureEncryption(s.Device, s.Params, s.Encryptor, pt)
		if err != nil {
			return nil, err
		}
		out, err := s.Classifier.Attack(cap, s.Params.N)
		if err != nil {
			return nil, err
		}
		acc, _, err := out.E2.Accuracy(cap.Truth.E2)
		if err != nil {
			return nil, err
		}
		v[fmt.Sprintf("value_acc_%d", msg)] = acc
		got, _, trials, err := core.RepairAndRecover(s.Params, s.PublicKey, cap.Ciphertext, out.E2, 16, 100000)
		if err != nil {
			continue // the repair search gave up: this message is not recovered
		}
		v[fmt.Sprintf("trials_%d", msg)] = float64(trials)
		if slices.Equal(got.Coeffs, pt.Coeffs) {
			v["recovered"]++
		}
	}
	return v, nil
}

// profileAndAttack profiles dev with opts, encrypts the zero plaintext
// under a key pair drawn at keySeed and returns the e2 value and sign
// accuracy of the attack on its trace.
func profileAndAttack(dev *core.Device, opts core.ProfileOptions, keySeed uint64) (valueAcc, signAcc float64, err error) {
	cls, err := core.Profile(dev, opts)
	if err != nil {
		return 0, 0, err
	}
	params := bfv.PaperParameters()
	prng := sampler.NewXoshiro256(keySeed)
	kg := bfv.NewKeyGenerator(params, prng)
	pk := kg.GenPublicKey(kg.GenSecretKey())
	enc := bfv.NewEncryptor(params, pk, prng)
	cap, err := core.CaptureEncryption(dev, params, enc, params.NewPlaintext())
	if err != nil {
		return 0, 0, err
	}
	out, err := cls.Attack(cap, params.N)
	if err != nil {
		return 0, 0, err
	}
	return out.E2.Accuracy(cap.Truth.E2)
}

func runPOIClaim() (Values, error) {
	v := Values{}
	for _, pois := range []int{4, 12, 28} {
		opts := core.DefaultProfileOptions()
		opts.Templates.POICount = pois
		opts.Templates.MinSpacing = 1
		acc, _, err := profileAndAttack(core.NewDevice(21), opts, 22)
		if err != nil {
			return nil, err
		}
		v[fmt.Sprintf("poi%d_acc", pois)] = acc
	}
	return v, nil
}

func runNoiseClaim() (Values, error) {
	v := Values{}
	for _, sigma := range []float64{0.002, 0.015, 0.05} {
		dev := core.NewDevice(23)
		dev.Model.NoiseSigma = sigma
		acc, signAcc, err := profileAndAttack(dev, core.DefaultProfileOptions(), 24)
		if err != nil {
			return nil, err
		}
		v[fmt.Sprintf("acc_%g", sigma)] = acc
		v[fmt.Sprintf("sign_acc_%g", sigma)] = signAcc
	}
	return v, nil
}

func runProfilingSizeClaim() (Values, error) {
	v := Values{}
	for _, tpv := range []int{10, 40, 120} {
		opts := core.DefaultProfileOptions()
		opts.TracesPerValue = tpv
		acc, _, err := profileAndAttack(core.NewDevice(101), opts, 102)
		if err != nil {
			return nil, err
		}
		v[fmt.Sprintf("acc_%d", tpv)] = acc
	}
	return v, nil
}

// countermeasureRun profiles a fresh default session and samples 256
// coefficients (plus a sentinel) at seed for a countermeasure firmware.
func countermeasureRun(source func(int, uint64) (string, error), seed uint64) (*Session, []byte, []int64, []sampler.SampleMeta, error) {
	cfg := DefaultConfig()
	cfg.AttackEncryptions = 1
	s, err := NewSession(cfg)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	src, err := source(countermeasureN+1, bfv.PaperQ)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	fw, err := core.AssembleFirmware(src)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	values, metas := sampler.DefaultClippedNormal().SamplePoly(sampler.NewXoshiro256(seed), countermeasureN)
	return s, fw, append(values, 0), append(metas, sampler.SampleMeta{}), nil
}

const countermeasureN = 256

func runShufflingClaim() (Values, error) {
	s, fw, values, metas, err := countermeasureRun(core.FirmwareSource, 31)
	if err != nil {
		return nil, err
	}
	tr, perm, err := core.CaptureShuffled(s.Device, fw, values, metas, sampler.NewXoshiro256(63))
	if err != nil {
		return nil, err
	}
	ev, err := core.EvaluateShuffledAttack(s.Classifier, tr, values, perm)
	if err != nil {
		return nil, err
	}
	return Values{"positional_acc": ev.PositionalAccuracy, "multiset_acc": ev.MultisetAccuracy}, nil
}

func runPatchedClaim() (Values, error) {
	s, fw, values, metas, err := countermeasureRun(core.FirmwareBranchless, 91)
	if err != nil {
		return nil, err
	}
	tr, err := s.Device.Capture(fw, values, metas)
	if err != nil {
		return nil, err
	}
	res, err := s.Classifier.AttackTrace(tr, countermeasureN+1)
	if err != nil {
		// A trace the segmenter cannot cut is a defense win: no sign is
		// recovered.
		return Values{"sign_acc": 0, "segmented": 0}, nil
	}
	ok := 0
	for j := 0; j < countermeasureN; j++ {
		if res.Signs[j] == sca.SignOf(int(values[j])) {
			ok++
		}
	}
	return Values{"sign_acc": float64(ok) / countermeasureN, "segmented": 1}, nil
}

// runCrossDeviceClaim profiles one device and attacks it and a sibling
// whose leakage coefficients differ by ±25% (§V-B).
func runCrossDeviceClaim() (Values, error) {
	cfg := DefaultConfig()
	cfg.AttackEncryptions = 1
	return crossDevice(cfg, 0.25)
}

// crossDevice profiles a session for cfg and attacks one encryption of the
// zero plaintext on its device and on a sibling whose leakage coefficients
// differ by ±spread.
func crossDevice(cfg Config, spread float64) (Values, error) {
	s, err := NewSession(cfg)
	if err != nil {
		return nil, err
	}
	sibling := s.Device.Perturb(cfg.Seed^0xDEAD, spread)
	v := Values{}
	for _, d := range []struct {
		name string
		dev  *core.Device
	}{{"same", s.Device}, {"cross", sibling}} {
		cap, err := core.CaptureEncryption(d.dev, s.Params, s.Encryptor, s.Params.NewPlaintext())
		if err != nil {
			return nil, err
		}
		out, err := s.Classifier.Attack(cap, s.Params.N)
		if err != nil {
			return nil, err
		}
		acc, signAcc, err := out.E2.Accuracy(cap.Truth.E2)
		if err != nil {
			return nil, err
		}
		v[d.name+"_value_acc"] = acc
		v[d.name+"_sign_acc"] = signAcc
	}
	return v, nil
}

func runTVLAClaim() (Values, error) {
	dev := core.NewDevice(61)
	vuln, err := core.RunTVLA(dev, bfv.PaperQ, 5, 60, false, 62)
	if err != nil {
		return nil, err
	}
	patched, err := core.RunTVLA(dev, bfv.PaperQ, 5, 60, true, 63)
	if err != nil {
		return nil, err
	}
	return Values{"max_t": vuln.MaxT, "max_t_branchless": patched.MaxT}, nil
}

var sweepDegrees = []int{1024, 2048, 4096, 8192, 16384, 32768}

func everyDegree(holds func(n int) bool) bool {
	for _, n := range sweepDegrees {
		if !holds(n) {
			return false
		}
	}
	return true
}

func sweepKey(hints string, n int) string { return fmt.Sprintf("%s_bikz_n%d", hints, n) }

func runSweepClaim() (Values, error) { return sweep(sweepDegrees, 7) }

// sweep estimates the SEAL default parameter set of each degree with no
// hints, ideal sign hints and ideal full hints, drawing the error vector
// of degree n at seed^n.
func sweep(degrees []int, seed uint64) (Values, error) {
	v := Values{}
	for _, n := range degrees {
		params, err := bfv.DefaultParameters(n, 256)
		if err != nil {
			return nil, err
		}
		q := 1.0
		for _, m := range params.Moduli {
			q *= float64(m)
		}
		for _, hints := range []string{"none", "sign", "full"} {
			in, err := IdealHints(n, q, params.Sigma, hints, seed^uint64(n))
			if err != nil {
				return nil, err
			}
			if v[sweepKey(hints, n)], err = in.EstimateBikz(); err != nil {
				return nil, err
			}
		}
	}
	return v, nil
}

func runDecryptionCPAClaim() (Values, error) {
	sk := sampler.TernaryPoly(sampler.NewXoshiro256(72), 24)
	res, err := core.RunDecryptionAttack(core.NewDevice(71), sk, 12289, 150, 73)
	if err != nil {
		return nil, err
	}
	rate, err := core.KeyRecoveryRate(res.Recovered, sk)
	if err != nil {
		return nil, err
	}
	return Values{"key_recovery": rate}, nil
}

func runMaskingClaim() (Values, error) {
	ev, err := core.EvaluateMasking(core.NewDevice(91), bfv.PaperQ, 40, 128, 92)
	if err != nil {
		return nil, err
	}
	return Values{"sign_acc": ev.SignAccuracy, "value_acc": ev.ValueAccuracy}, nil
}

// runSecondOrderClaim probes the masked kernel with a device whose data
// leakage is tripled: the second-order signal scales with its square.
func runSecondOrderClaim() (Values, error) {
	dev := core.NewDevice(111)
	dev.Model.AlphaHWData *= 3
	dev.Model.DeltaHDBus *= 3
	dev.Model.NoiseSigma = 0.005
	dev.Model.PortSpike = 25
	study, err := core.RunSecondOrderStudy(dev, 257, 14, 1500, 112)
	if err != nil {
		return nil, err
	}
	return Values{"first_order_max_t": study.FirstOrderMaxT, "second_order_max_t": study.SecondOrderMaxT}, nil
}
