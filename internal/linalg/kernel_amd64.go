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

// row16 computes one row of a substitution over sixteen interleaved
// columns: dst[j] = (src[j] − Σ_t coef[t]·v[t·stride+j]) / d for j < 16,
// subtracting term by term in ascending t. Each YMM lane is one column's
// chain with sub4's operations in sub4's order: multiply the column value
// by the broadcast factor, subtract the product from the accumulator, and
// divide at the end. Nothing is fused or reassociated, so every lane is
// bitwise equal to the scalar code. The caller keeps every read in range.
func row16(dst, src, coef, v []float64, stride int, d float64)

// row4 is row16 for four columns.
func row4(dst, src, coef, v []float64, stride int, d float64)

// colDots sets q[c] = Σ_i r[i·k+c]·x[i·k+c] for c < len(q) and i < n,
// summing in ascending i from +0 as Dot does over one column: blocks of
// sixteen and four columns run one column per YMM lane, the rest through
// scalar instructions. The caller keeps every read in range.
func colDots(q, r, x []float64, n, k int)
