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

// The kernels below use only separate VMULPD/VSUBPD/VDIVPD/VADDPD (and
// their scalar forms): no FMA, no reciprocal, no horizontal sum. Operand
// order follows the compiled Go code they replace (v·coef, acc − product,
// acc / d, sum + r·x), so even NaN payloads come out the same.

// func row16(dst, src, coef, v []float64, stride int, d float64)
TEXT ·row16(SB), NOSPLIT, $0-112
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ coef_base+48(FP), BX
	MOVQ coef_len+56(FP), CX
	MOVQ v_base+72(FP), DX
	MOVQ stride+96(FP), R8
	SHLQ $3, R8
	VMOVUPD (SI), Y0
	VMOVUPD 32(SI), Y1
	VMOVUPD 64(SI), Y2
	VMOVUPD 96(SI), Y3
	TESTQ CX, CX
	JZ   div16

loop16:
	VBROADCASTSD (BX), Y4
	VMOVUPD (DX), Y5
	VMOVUPD 32(DX), Y6
	VMOVUPD 64(DX), Y7
	VMOVUPD 96(DX), Y8
	VMULPD Y4, Y5, Y5
	VMULPD Y4, Y6, Y6
	VMULPD Y4, Y7, Y7
	VMULPD Y4, Y8, Y8
	VSUBPD Y5, Y0, Y0
	VSUBPD Y6, Y1, Y1
	VSUBPD Y7, Y2, Y2
	VSUBPD Y8, Y3, Y3
	ADDQ $8, BX
	ADDQ R8, DX
	DECQ CX
	JNZ  loop16

div16:
	VBROADCASTSD d+104(FP), Y4
	VDIVPD  Y4, Y0, Y0
	VDIVPD  Y4, Y1, Y1
	VDIVPD  Y4, Y2, Y2
	VDIVPD  Y4, Y3, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET

// func row4(dst, src, coef, v []float64, stride int, d float64)
TEXT ·row4(SB), NOSPLIT, $0-112
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ coef_base+48(FP), BX
	MOVQ coef_len+56(FP), CX
	MOVQ v_base+72(FP), DX
	MOVQ stride+96(FP), R8
	SHLQ $3, R8
	VMOVUPD (SI), Y0
	TESTQ CX, CX
	JZ   div4

loop4:
	VBROADCASTSD (BX), Y4
	VMOVUPD (DX), Y5
	VMULPD Y4, Y5, Y5
	VSUBPD Y5, Y0, Y0
	ADDQ $8, BX
	ADDQ R8, DX
	DECQ CX
	JNZ  loop4

div4:
	VBROADCASTSD d+104(FP), Y4
	VDIVPD  Y4, Y0, Y0
	VMOVUPD Y0, (DI)
	VZEROUPPER
	RET

// func colDots(q, r, x []float64, n, k int)
TEXT ·colDots(SB), NOSPLIT, $0-88
	MOVQ q_base+0(FP), DI
	MOVQ q_len+8(FP), CX
	MOVQ r_base+24(FP), SI
	MOVQ x_base+48(FP), DX
	MOVQ n+72(FP), R9
	MOVQ k+80(FP), R8
	SHLQ $3, R8

cols16:
	CMPQ CX, $16
	JLT  cols4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ SI, R10
	MOVQ DX, R11
	MOVQ R9, R12
	TESTQ R12, R12
	JZ   store16

rows16:
	VMOVUPD (R10), Y4
	VMOVUPD 32(R10), Y5
	VMOVUPD 64(R10), Y6
	VMOVUPD 96(R10), Y7
	VMULPD (R11), Y4, Y4
	VMULPD 32(R11), Y5, Y5
	VMULPD 64(R11), Y6, Y6
	VMULPD 96(R11), Y7, Y7
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3
	ADDQ R8, R10
	ADDQ R8, R11
	DECQ R12
	JNZ  rows16

store16:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, SI
	ADDQ $128, DX
	SUBQ $16, CX
	JMP  cols16

cols4:
	CMPQ CX, $4
	JLT  cols1
	VXORPD Y0, Y0, Y0
	MOVQ SI, R10
	MOVQ DX, R11
	MOVQ R9, R12
	TESTQ R12, R12
	JZ   store4

rows4:
	VMOVUPD (R10), Y4
	VMULPD (R11), Y4, Y4
	VADDPD Y4, Y0, Y0
	ADDQ R8, R10
	ADDQ R8, R11
	DECQ R12
	JNZ  rows4

store4:
	VMOVUPD Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, DX
	SUBQ $4, CX
	JMP  cols4

cols1:
	TESTQ CX, CX
	JZ   done
	VXORPD X0, X0, X0
	MOVQ SI, R10
	MOVQ DX, R11
	MOVQ R9, R12
	TESTQ R12, R12
	JZ   store1

rows1:
	VMOVSD (R10), X4
	VMULSD (R11), X4, X4
	VADDSD X4, X0, X0
	ADDQ R8, R10
	ADDQ R8, R11
	DECQ R12
	JNZ  rows1

store1:
	VMOVSD X0, (DI)
	ADDQ $8, DI
	ADDQ $8, SI
	ADDQ $8, DX
	DECQ CX
	JMP  cols1

done:
	VZEROUPPER
	RET
