#include "textflag.h"

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// The kernel below uses only separate VSUBPD/VMULPD/VDIVPD/VADDPD: no FMA,
// no reciprocal, no horizontal sum, and lanes never exchange values.
// Operand order follows the compiled Go code of the twin (f − m, v·coef,
// acc − product, acc / d, sum + r·x), so even NaN payloads come out the
// same.
//
// Register use: SI feature pointer of row i (group g at SI + g·R8), R8 the
// feature stride in bytes, DX means row i, BX the factor row, R10 the
// address of the diagonal entry, R11 work row 0, R13 work row i, CX n, R12
// the rows left, AX and DI the inner loop's coefficient and work pointers.
// Y0–Y3 hold the four groups' accumulators, Y4 the broadcast coefficient,
// Y5–Y8 the products, Y9–Y12 the sums.

// func quadBlock16(q, feat []float64, fstride int, means, lower, upper, diag, work []float64)
TEXT ·quadBlock16(SB), NOSPLIT, $0-176
	MOVQ feat_base+24(FP), SI
	MOVQ fstride+48(FP), R8
	SHLQ $3, R8
	MOVQ means_base+56(FP), DX
	MOVQ lower_base+80(FP), BX
	MOVQ diag_base+128(FP), R10
	MOVQ diag_len+136(FP), CX
	MOVQ work_base+152(FP), R11
	MOVQ R11, R13
	MOVQ CX, R12

	// Forward substitution, i ascending: y_i = (r_i − Σ_{t<i} L_it·y_t) / L_ii.
fwd:
	VBROADCASTSD (SI), Y0
	LEAQ (SI)(R8*1), AX
	VBROADCASTSD (AX), Y1
	VBROADCASTSD (AX)(R8*1), Y2
	LEAQ (AX)(R8*2), AX
	VBROADCASTSD (AX), Y3
	VSUBPD (DX), Y0, Y0
	VSUBPD 32(DX), Y1, Y1
	VSUBPD 64(DX), Y2, Y2
	VSUBPD 96(DX), Y3, Y3
	MOVQ BX, AX
	MOVQ R11, DI
	CMPQ DI, R13
	JEQ  fwddiv

fwdterm:
	VBROADCASTSD (AX), Y4
	VMOVUPD (DI), Y5
	VMOVUPD 32(DI), Y6
	VMOVUPD 64(DI), Y7
	VMOVUPD 96(DI), Y8
	VMULPD Y4, Y5, Y5
	VMULPD Y4, Y6, Y6
	VMULPD Y4, Y7, Y7
	VMULPD Y4, Y8, Y8
	VSUBPD Y5, Y0, Y0
	VSUBPD Y6, Y1, Y1
	VSUBPD Y7, Y2, Y2
	VSUBPD Y8, Y3, Y3
	ADDQ $8, AX
	ADDQ $128, DI
	CMPQ DI, R13
	JNE  fwdterm

fwddiv:
	VBROADCASTSD (R10), Y4
	VDIVPD  Y4, Y0, Y0
	VDIVPD  Y4, Y1, Y1
	VDIVPD  Y4, Y2, Y2
	VDIVPD  Y4, Y3, Y3
	VMOVUPD Y0, (R13)
	VMOVUPD Y1, 32(R13)
	VMOVUPD Y2, 64(R13)
	VMOVUPD Y3, 96(R13)
	ADDQ $8, SI
	ADDQ $128, DX
	LEAQ (BX)(CX*8), BX
	ADDQ $8, R10
	ADDQ $128, R13
	DECQ R12
	JNZ  fwd

	// Back substitution, i descending: x_i = (y_i − Σ_{t>i} Lᵀ_it·x_t) / L_ii,
	// reading row i of Lᵀ from column i+1 and overwriting y_i with x_i.
	// DX is the end of work, SI the stride between the rows' first
	// coefficients, BX row i's first coefficient (row n−1 has none).
	MOVQ R13, DX
	SUBQ $128, R13
	SUBQ $8, R10
	MOVQ CX, SI
	INCQ SI
	SHLQ $3, SI
	MOVQ CX, AX
	IMULQ CX, AX
	MOVQ upper_base+104(FP), BX
	LEAQ (BX)(AX*8), BX
	MOVQ CX, R12

back:
	VMOVUPD (R13), Y0
	VMOVUPD 32(R13), Y1
	VMOVUPD 64(R13), Y2
	VMOVUPD 96(R13), Y3
	MOVQ BX, AX
	LEAQ 128(R13), DI
	CMPQ DI, DX
	JEQ  backdiv

backterm:
	VBROADCASTSD (AX), Y4
	VMOVUPD (DI), Y5
	VMOVUPD 32(DI), Y6
	VMOVUPD 64(DI), Y7
	VMOVUPD 96(DI), Y8
	VMULPD Y4, Y5, Y5
	VMULPD Y4, Y6, Y6
	VMULPD Y4, Y7, Y7
	VMULPD Y4, Y8, Y8
	VSUBPD Y5, Y0, Y0
	VSUBPD Y6, Y1, Y1
	VSUBPD Y7, Y2, Y2
	VSUBPD Y8, Y3, Y3
	ADDQ $8, AX
	ADDQ $128, DI
	CMPQ DI, DX
	JNE  backterm

backdiv:
	VBROADCASTSD (R10), Y4
	VDIVPD  Y4, Y0, Y0
	VDIVPD  Y4, Y1, Y1
	VDIVPD  Y4, Y2, Y2
	VDIVPD  Y4, Y3, Y3
	VMOVUPD Y0, (R13)
	VMOVUPD Y1, 32(R13)
	VMOVUPD Y2, 64(R13)
	VMOVUPD Y3, 96(R13)
	SUBQ $128, R13
	SUBQ $8, R10
	SUBQ SI, BX
	DECQ R12
	JNZ  back

	// Sums, i ascending: q_j = Σ_i r_i·x_i from +0, with the residual
	// formed again exactly as in the forward pass.
	MOVQ feat_base+24(FP), SI
	MOVQ means_base+56(FP), DX
	MOVQ R11, R13
	MOVQ CX, R12
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	VXORPD Y12, Y12, Y12

sum:
	VBROADCASTSD (SI), Y0
	LEAQ (SI)(R8*1), AX
	VBROADCASTSD (AX), Y1
	VBROADCASTSD (AX)(R8*1), Y2
	LEAQ (AX)(R8*2), AX
	VBROADCASTSD (AX), Y3
	VSUBPD (DX), Y0, Y0
	VSUBPD 32(DX), Y1, Y1
	VSUBPD 64(DX), Y2, Y2
	VSUBPD 96(DX), Y3, Y3
	VMULPD (R13), Y0, Y0
	VMULPD 32(R13), Y1, Y1
	VMULPD 64(R13), Y2, Y2
	VMULPD 96(R13), Y3, Y3
	VADDPD Y0, Y9, Y9
	VADDPD Y1, Y10, Y10
	VADDPD Y2, Y11, Y11
	VADDPD Y3, Y12, Y12
	ADDQ $8, SI
	ADDQ $128, DX
	ADDQ $128, R13
	DECQ R12
	JNZ  sum

	MOVQ q_base+0(FP), DI
	VMOVUPD Y9, (DI)
	VMOVUPD Y10, 32(DI)
	VMOVUPD Y11, 64(DI)
	VMOVUPD Y12, 96(DI)
	VZEROUPPER
	RET
