package linalg

// useAVX2 selects the AVX2 kernels: the CPU has AVX2 and the OS saves the
// YMM registers on a context switch. It is read once, at package init.
var useAVX2 = avx2Usable()

// CPUID leaf 1 ECX, leaf 7 EBX and XCR0 bits that AVX2 needs.
const (
	cpuidOSXSAVE = 1 << 27
	cpuidAVX     = 1 << 28
	cpuidAVX2    = 1 << 5
	xcr0SSEAVX   = 1<<1 | 1<<2 // XMM and YMM state
)

func avx2Usable() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	// XGETBV faults unless OSXSAVE is set, so it is evaluated last.
	return maxLeaf >= 7 && ebx7&cpuidAVX2 != 0 &&
		ecx1&(cpuidOSXSAVE|cpuidAVX) == cpuidOSXSAVE|cpuidAVX && xgetbv0()&xcr0SSEAVX == xcr0SSEAVX
}

// cpuid executes CPUID with the given leaf (EAX) and subleaf (ECX).
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low word of extended control register XCR0.
func xgetbv0() uint32

// quadBlock16 computes the sixteen lanes of QuadBlockInto in one call.
// Each YMM register holds one group's four lanes. Per row, the residual
// feat[g·fstride+i] − means[i·16+j] starts the forward-substitution chain,
// which subtracts the products row by row in ascending order and divides
// by the diagonal at the end; back substitution overwrites the rows of
// work with x in descending order; a last pass forms the residual again
// and sums r·x from +0 in ascending order. Every lane uses sub4's and
// columnDots' operations in their order, so it is bitwise equal to the Go
// twin. Only work's first n×16 entries are used. The caller keeps every
// read in range and n ≥ 1.
func quadBlock16(q, feat []float64, fstride int, means, lower, upper, diag, work []float64)
