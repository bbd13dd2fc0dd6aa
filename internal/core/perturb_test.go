package core

import (
	"math"
	"slices"
	"testing"

	"reveal/internal/rv32"
)

// perturbedModelBits lists the IEEE bits of every leakage coefficient
// Perturb jitters, in the order it draws them: class base costs in
// ascending class order, the bit-line weights, then the three data terms.
func perturbedModelBits(d *Device) []uint64 {
	m := d.Model
	var bits []uint64
	for c := rv32.ClassALU; c <= rv32.ClassSystem; c++ {
		bits = append(bits, math.Float64bits(m.Base[c]))
	}
	for _, w := range m.BitWeights {
		bits = append(bits, math.Float64bits(w))
	}
	return append(bits, math.Float64bits(m.AlphaHWData), math.Float64bits(m.BetaHDReg), math.Float64bits(m.DeltaHDBus))
}

// TestPerturbDeterministic: the same device, seed and spread must give the
// same sibling on every call, so cross-device studies replay.
func TestPerturbDeterministic(t *testing.T) {
	want := perturbedModelBits(NewDevice(1).Perturb(7, 0.1))
	for i := 0; i < 20; i++ {
		if got := perturbedModelBits(NewDevice(1).Perturb(7, 0.1)); !slices.Equal(got, want) {
			t.Fatalf("call %d: perturbed model %x, first call %x", i, got, want)
		}
	}
}

// TestPerturbGolden pins the sibling of NewDevice(1).Perturb(7, 0.1),
// recorded once draws followed class order.
func TestPerturbGolden(t *testing.T) {
	want := []uint64{
		// Base, ALU … System
		0x3ff0a44fefe42feb, 0x3fed0e07dcd9901d, 0x3ff481113fd2e0aa, 0x3ff6cd265b787ee3,
		0x3ffc1cfafa7d6815, 0x3ffe1668a1c7fbf0, 0x3ffea5f3f8f2a7ce, 0x3fea85844f7475b5,
		// BitWeights[0:32]
		0x3fef360e56a0f085, 0x3ff115081edf2c48, 0x3fee8f96692e7ce7, 0x3febcd55c1a0775b,
		0x3ff253af8c7dba7f, 0x3ff2b4ef815d3cea, 0x3fef169e0e851afc, 0x3feb2ee99491a4cb,
		0x3fef43fc40171899, 0x3ff12cd8d7e832fb, 0x3febafee8373fa7a, 0x3fed9345247e3649,
		0x3feb4507f11ec326, 0x3fefbffb50b34f5e, 0x3ff34bb1d920d1d4, 0x3ff0ad129fa2d87c,
		0x3fed9be58f60b9cd, 0x3ff0da8f6d74e1be, 0x3fefa8f38c20cfaf, 0x3ff2152815247c48,
		0x3ff06d2c8d53c8e0, 0x3fed99b327ba8eac, 0x3feefe9bd037a634, 0x3fee946705b7cf92,
		0x3fef1346c16156d9, 0x3ff266111b9921a2, 0x3ff4565dad65c6bb, 0x3fec9c1f8da3a8e1,
		0x3fedd51c8e1f9f2f, 0x3feebf8284a03f46, 0x3ff1d44d73d0246f, 0x3ff4a1c6faa86d4f,
		// AlphaHWData, BetaHDReg, DeltaHDBus
		0x3fb771b7a3aea279, 0x3f91624ff249392c, 0x3faf156d3f35e8c4,
	}
	got := perturbedModelBits(NewDevice(1).Perturb(7, 0.1))
	if !slices.Equal(got, want) {
		t.Fatalf("perturbed model %#x, want %#x", got, want)
	}
}
