package core

import (
	"fmt"

	"reveal/internal/sampler"
	"reveal/internal/sca"
	"reveal/internal/trace"
)

// Decryption-side attack (§II-B of the paper): "decryption operations can
// be targeted by simply extending earlier multi-trace attacks [13], [14]
// to HE". Unlike encryption — whose randomness is fresh per run, forcing
// the single-trace attack — the secret key repeats across decryptions, so
// classic correlation power analysis applies. This module implements that
// extension: a decryption MAC kernel on the device, a multi-trace CPA
// campaign against it, and ternary secret-key recovery.

// SecretKeyBase is where the decryption firmware keeps the key residues.
const SecretKeyBase uint32 = 0x8000

// DecryptionFirmware builds the per-coefficient kernel of the dot product
// c1·s the decryptor computes: load a (public, varying) ciphertext word
// from the port, load the (secret, fixed) key residue from RAM, multiply,
// and store the product. The multiply/store pair leaks HW(c·s), the hook
// CPA needs.
func DecryptionFirmware(n int) (string, error) {
	if n < 1 {
		return "", fmt.Errorf("core: need at least 1 coefficient, got %d", n)
	}
	return fmt.Sprintf(`
	# Decryption MAC kernel: acc_i = c1[i] * s[i] (product stored per slot).
	li   s0, %d          # ciphertext word port
	li   s1, %d          # &out[0]
	li   s2, %d          # n
	li   s4, %d          # &sk[0] (secret residues)
	li   t0, 0
loop:
	lw   t1, 0(s0)       # c (public, fresh each decryption)
	lw   t2, 0(s4)       # s (secret, fixed across decryptions)
	mul  t3, t1, t2      # c*s — the DPA target
	sw   t3, 0(s1)
	addi s1, s1, 4
	addi s4, s4, 4
	addi t0, t0, 1
	blt  t0, s2, loop
	ebreak
`, PortBase, PolyBase, n, SecretKeyBase), nil
}

// CaptureDecryption runs one decryption kernel execution: the ternary key
// residues (mod q) are planted in RAM, the known ciphertext words stream
// through the port, and the power trace is returned.
func CaptureDecryption(dev *Device, firmware []byte, skResidues []uint32, c1 []uint32) (trace.Trace, error) {
	values := make([]int64, len(c1))
	metas := make([]sampler.SampleMeta, len(c1))
	for i, c := range c1 {
		values[i] = int64(int32(c))
	}
	// Plant the key before running: Capture loads firmware at 0 and resets
	// RAM, so we wrap its internals here with a pre-run hook.
	return dev.captureWithSetup(dev.nextRun(), firmware, values, metas, func(write func(addr, v uint32) error) error {
		for i, r := range skResidues {
			if err := write(SecretKeyBase+uint32(4*i), r); err != nil {
				return err
			}
		}
		return nil
	})
}

// DecryptionAttackResult is the outcome of the multi-trace key recovery.
type DecryptionAttackResult struct {
	// Recovered is the guessed ternary key (-1, 0, 1 per coefficient).
	Recovered []int
	// Confidence is the winning correlation per coefficient.
	Confidence []float64
}

// ZeroCorrelationThreshold: coefficients whose best hypothesis correlates
// below this are classified as zero (s=0 produces a constant all-zero
// product that correlates with nothing). The bound must sit above the
// max-over-samples noise floor (≈0.25 for 150 traces × ~60 samples) and
// below the true-match correlation (≈0.99).
const ZeroCorrelationThreshold = 0.4

// DecryptionCPA recovers the ternary key from many decryption traces with
// known ciphertext words: for each coefficient it correlates the measured
// sub-traces against HW(c·1) and HW(c·(q−1) mod 2³²) and thresholds for
// zero.
func DecryptionCPA(subTraces [][]trace.Trace, c1PerTrace [][]uint32, q uint64) (*DecryptionAttackResult, error) {
	n := len(subTraces)
	if n == 0 {
		return nil, fmt.Errorf("core: no sub-traces")
	}
	m := len(subTraces[0])
	if m < 8 {
		return nil, fmt.Errorf("core: CPA needs several traces, got %d", m)
	}
	if len(c1PerTrace) != m {
		return nil, fmt.Errorf("core: %d ciphertexts for %d traces", len(c1PerTrace), m)
	}
	negOne := uint32(q - 1)
	res := &DecryptionAttackResult{
		Recovered:  make([]int, n),
		Confidence: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		traces := subTraces[i]
		cs := make([]uint32, m)
		for k := 0; k < m; k++ {
			cs[k] = c1PerTrace[k][i]
		}
		preds := sca.HWPredictions([]uint32{1, negOne}, m, func(cand uint32, k int) uint32 {
			return cs[k] * cand // low 32 bits of the product, as the mul stores
		})
		out, err := sca.CPA(traces, preds)
		if err != nil {
			return nil, fmt.Errorf("core: coefficient %d: %w", i, err)
		}
		best := out.Scores[out.BestHypothesis]
		res.Confidence[i] = best
		switch {
		case best < ZeroCorrelationThreshold:
			res.Recovered[i] = 0
		case out.BestHypothesis == 0:
			res.Recovered[i] = 1
		default:
			res.Recovered[i] = -1
		}
	}
	return res, nil
}

// RunDecryptionAttack performs the full campaign: nTraces decryptions with
// random known ciphertext words against a fixed ternary key, segmented and
// fed to CPA.
func RunDecryptionAttack(dev *Device, skSigned []int64, q uint64, nTraces int, seed uint64) (*DecryptionAttackResult, error) {
	n := len(skSigned)
	if n == 0 {
		return nil, fmt.Errorf("core: empty secret key")
	}
	src, err := DecryptionFirmware(n)
	if err != nil {
		return nil, err
	}
	fw, err := AssembleFirmware(src)
	if err != nil {
		return nil, err
	}
	skResidues := make([]uint32, n)
	for i, s := range skSigned {
		switch {
		case s == 0:
			skResidues[i] = 0
		case s == 1:
			skResidues[i] = 1
		case s == -1:
			skResidues[i] = uint32(q - 1)
		default:
			return nil, fmt.Errorf("core: key coefficient %d = %d not ternary", i, s)
		}
	}
	prng := sampler.NewXoshiro256(seed)

	subTraces := make([][]trace.Trace, n)
	c1PerTrace := make([][]uint32, nTraces)
	length := 0
	for k := 0; k < nTraces; k++ {
		c1 := make([]uint32, n)
		for i := range c1 {
			c1[i] = uint32(sampler.Uint64Below(prng, q))
		}
		c1PerTrace[k] = c1
		tr, err := CaptureDecryption(dev, fw, skResidues, c1)
		if err != nil {
			return nil, err
		}
		segs, err := trace.SegmentEncryptionTrace(tr, n, 8)
		if err != nil {
			return nil, fmt.Errorf("core: decryption trace %d: %w", k, err)
		}
		for i, s := range segs {
			sub := s.Samples
			if length == 0 || len(sub) < length {
				length = len(sub)
			}
			subTraces[i] = append(subTraces[i], sub)
		}
	}
	// Tail-align all sub-traces to the common minimum length, then drop the
	// port-load region at the front: the load of c itself leaks HW(c)
	// independently of the key, which would make every "s=1" hypothesis
	// correlate. Only the multiply/store region carries key-dependent
	// leakage.
	portLoad := dev.WaitBase + 5 // port access duration in cycles
	cpaLen := length - portLoad
	if cpaLen < 8 {
		return nil, fmt.Errorf("core: sub-traces too short after removing the load region")
	}
	for i := range subTraces {
		for k := range subTraces[i] {
			subTraces[i][k] = tailAlign(subTraces[i][k], cpaLen)
		}
	}
	return DecryptionCPA(subTraces, c1PerTrace, q)
}

// KeyRecoveryRate compares a recovered ternary key with the truth.
func KeyRecoveryRate(recovered []int, truth []int64) (float64, error) {
	if len(recovered) != len(truth) {
		return 0, fmt.Errorf("core: length mismatch %d vs %d", len(recovered), len(truth))
	}
	if len(truth) == 0 {
		return 0, nil
	}
	ok := 0
	for i := range truth {
		if int64(recovered[i]) == truth[i] {
			ok++
		}
	}
	return float64(ok) / float64(len(truth)), nil
}
