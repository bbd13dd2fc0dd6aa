package core

import (
	"encoding/binary"
	"fmt"

	"reveal/internal/bfv"
	"reveal/internal/modular"
	"reveal/internal/ring"
	"reveal/internal/rv32"
	"reveal/internal/sampler"
	"reveal/internal/trace"
)

// Test oracles and accessors: one-coefficient classification, the
// firmware's stored residues and masked shares read back from RAM, and the
// algebraic e1 cross-check.

// Classification is the outcome for one coefficient sub-trace.
type Classification struct {
	// Value is the maximum-likelihood coefficient.
	Value int
	// Sign is the recovered branch (−1, 0, +1).
	Sign int
	// Probs is the posterior over coefficient values (a row of Table II):
	// P(v) = P(sign)·P(v | sign), over the classifier's label set.
	Probs Posterior
}

// ClassifySegment classifies one per-coefficient sub-trace: branch first
// (V1), then the value template of the recovered side (V2/V3), with the
// combined posterior P(v) = P(sign)·P(v | sign). The arithmetic runs on a
// pooled segScorer as a run of one segment, scoring each template set
// exactly once.
func (c *CoefficientClassifier) ClassifySegment(seg trace.Trace) (*Classification, error) {
	ss := c.scorer()
	defer c.release(ss)
	labels := c.labels()
	row := make([]float64, len(labels))
	var value, sign [1]int
	if err := ss.classify(0, []trace.Segment{{Samples: seg}}, row, value[:], sign[:]); err != nil {
		return nil, err
	}
	return &Classification{Value: value[0], Sign: sign[0], Probs: Posterior{Labels: labels, P: row}}, nil
}

// StoredPoly reads back the polynomial residues the firmware wrote, the
// ground truth the capture and firmware tests check against.
func (d *Device) StoredPoly(firmware []byte, values []int64, metas []sampler.SampleMeta) ([]uint32, error) {
	port := &samplerPort{values: values, waits: make([]int, len(values))}
	cpu := rv32.NewCPU(d.MemSize)
	cpu.MapMMIO(PortBase, 0x100, port)
	if err := cpu.Load(firmware, 0); err != nil {
		return nil, err
	}
	if _, err := cpu.Run(64 * (len(values) + 4)); err != nil {
		return nil, err
	}
	out := make([]uint32, len(values))
	for i := range out {
		out[i] = readWord(cpu, PolyBase+uint32(4*i))
	}
	return out, nil
}

// runMaskedForTest executes the masked kernel and returns the CPU so tests
// can inspect the written shares.
func (d *Device) runMaskedForTest(firmware []byte, values []int64, q uint64, maskSeed uint64) (*rv32.CPU, error) {
	cpu := rv32.NewCPU(d.MemSize)
	cpu.MapMMIO(PortBase, 0x100, &samplerPort{values: values, waits: make([]int, len(values))})
	cpu.MapMMIO(MaskPortBase, 0x100, &maskPort{q: q, prng: sampler.NewXoshiro256(maskSeed)})
	if err := cpu.Load(firmware, 0); err != nil {
		return nil, err
	}
	if _, err := cpu.Run(96 * (len(values) + 4)); err != nil {
		return nil, err
	}
	return cpu, nil
}

// RecoverU inverts Eq. 2 of the paper for one e2 guess, u = (c1 − e2) ·
// p1^−1 in R_q, and reports whether u is ternary: one trial of
// RepairAndRecover's search.
func RecoverU(params *bfv.Parameters, pk *bfv.PublicKey, ct *bfv.Ciphertext, e2 []int64) (*ring.Poly, bool, error) {
	s, err := newUSolver(params, pk, ct)
	if err != nil {
		return nil, false, err
	}
	ternary, err := s.solve(e2)
	if err != nil {
		return nil, false, err
	}
	return s.u, ternary, nil
}

// RecoverMessage completes Eq. 3 for a known u.
func RecoverMessage(params *bfv.Parameters, pk *bfv.PublicKey, ct *bfv.Ciphertext, u *ring.Poly) (*bfv.Plaintext, error) {
	return recoverMessage(params, pk, ct, u), nil
}

// RecoverMessageFromE2 chains RecoverU and RecoverMessage, failing when the
// ternary verification rejects the e2 candidate.
func RecoverMessageFromE2(params *bfv.Parameters, pk *bfv.PublicKey, ct *bfv.Ciphertext, e2 []int64) (*bfv.Plaintext, error) {
	u, ternary, err := RecoverU(params, pk, ct, e2)
	if err != nil {
		return nil, err
	}
	if !ternary {
		return nil, fmt.Errorf("core: recovered u is not ternary: e2 candidate rejected")
	}
	return RecoverMessage(params, pk, ct, u)
}

// readWord reads a little-endian word of the CPU's RAM.
func readWord(cpu *rv32.CPU, addr uint32) uint32 {
	return binary.LittleEndian.Uint32(cpu.Mem[addr:])
}

// CrossValidateE1 closes the loop on the second error polynomial: with the
// message and u recovered, e1 = c0 − p0·u − Δ·m is computable exactly, and
// the share of coefficients the e1 attack classified to that value is
// returned — the algebraic oracle TestCrossValidateE1 holds the e1
// classification to.
func CrossValidateE1(params *bfv.Parameters, pk *bfv.PublicKey, ct *bfv.Ciphertext,
	u *ring.Poly, m *bfv.Plaintext, e1Attack *AttackResult) (agreement float64, err error) {
	ctx := params.Context()
	if len(e1Attack.Values) != ctx.N {
		return 0, fmt.Errorf("core: e1 attack covered %d coefficients, want %d", len(e1Attack.Values), ctx.N)
	}
	// e1 = c0 − p0·u − Δ·m.
	p0u := ctx.NewPoly()
	ctx.MulPoly(pk.P0, u, p0u)
	e1 := ctx.NewPoly()
	ctx.Sub(ct.C[0], p0u, e1)
	for j, q := range params.Moduli {
		dj := params.DeltaMod(j)
		for i, mv := range m.Coeffs {
			e1.Coeffs[j][i] = modular.Sub(e1.Coeffs[j][i], modular.Mul(dj, mv, q), q)
		}
	}
	match := 0
	q0 := params.Moduli[0]
	for i := 0; i < ctx.N; i++ {
		truth := modular.CenteredRep(e1.Coeffs[0][i], q0)
		if truth == int64(e1Attack.Values[i]) {
			match++
		}
	}
	return float64(match) / float64(ctx.N), nil
}

// Get returns the cached classifier for key, marking it most recently used.
func (c *TemplateCache) Get(key string) (*CoefficientClassifier, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).cls, true
}
