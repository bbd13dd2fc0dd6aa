package core

// Wide-modulus firmware support: ladder primes are up to 61 bits while the
// RV32 kernel works in 32-bit words. FirmwareModulus maps q to its low
// limb; because subtraction mod 2^32 depends only on low limbs, the word
// the device stores equals the low 32 bits of the true residue — which is
// what these tests pin down against the Go-side AssignSigned reference.

import (
	"testing"

	"reveal/internal/ring"
	"reveal/internal/sampler"
)

func TestFirmwareModulus(t *testing.T) {
	// Identity on anything that already fits 32 bits (the legacy paper q).
	for _, q := range []uint64{1, 12289, 132120577, (1 << 32) - 1} {
		if got := FirmwareModulus(q); got != q {
			t.Fatalf("FirmwareModulus(%d) = %d, want identity", q, got)
		}
	}
	// Low limb on wide primes.
	params, err := ring.LadderParams(2048)
	if err != nil {
		t.Fatal(err)
	}
	q54 := params.Moduli[0]
	if got, want := FirmwareModulus(q54), q54&0xffffffff; got != want {
		t.Fatalf("FirmwareModulus(%d) = %d, want %d", q54, got, want)
	}
	if FirmwareModulus(q54) >= 1<<32 {
		t.Fatal("FirmwareModulus result does not fit 32 bits")
	}
}

// TestFirmwareWideModulusSemantics runs the kernel with the reduced image
// of every ladder prime and checks each stored word equals the low 32 bits
// of the true residue AssignSigned would produce under the full modulus.
func TestFirmwareWideModulusSemantics(t *testing.T) {
	values := []int64{0, 1, -1, 5, -5, 41, -41, 14, -14}
	for _, n := range ring.LadderDegrees() {
		params, err := ring.LadderParams(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range params.Moduli {
			src, err := FirmwareSource(len(values), FirmwareModulus(q))
			if err != nil {
				t.Fatalf("q=%d: %v", q, err)
			}
			fw, err := AssembleFirmware(src)
			if err != nil {
				t.Fatalf("q=%d: %v", q, err)
			}
			dev := NewDevice(7)
			metas := make([]sampler.SampleMeta, len(values))
			stored, err := dev.StoredPoly(fw, values, metas)
			if err != nil {
				t.Fatalf("q=%d: %v", q, err)
			}
			for i, v := range values {
				want, _ := sampler.AssignSigned(v, []uint64{q})
				if uint64(stored[i]) != want[0]&0xffffffff {
					t.Errorf("q=%d coeff %d (value %d): stored %d, want low32(%d) = %d",
						q, i, v, stored[i], want[0], want[0]&0xffffffff)
				}
			}
		}
	}
}
