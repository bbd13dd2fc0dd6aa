#include "textflag.h"

// PAIR stores a 64-bit constant once per lane. Each is its own 16-byte
// symbol, which the linker aligns to 16 bytes, as SSE2 memory operands
// need.
#define PAIR(name, bits) \
	DATA name<>+0(SB)/8, $bits; \
	DATA name<>+8(SB)/8, $bits; \
	GLOBL name<>(SB), RODATA|NOPTR, $16

PAIR(polarMant, 0x000fffffffffffff)
PAIR(polarHalf, 0x3fe0000000000000)   // 0.5
PAIR(polarBias, 0x000003fe000003fe)   // 0x3FE in each 32-bit lane
PAIR(polarHSqrt2, 0x3fe6a09e667f3bcd) // sqrt(2)/2
PAIR(polarOne, 0x3ff0000000000000)
PAIR(polarTwo, 0x4000000000000000)
PAIR(polarMinus2, 0xc000000000000000)
PAIR(polarLn2Hi, 0x3fe62e42fee00000)
PAIR(polarLn2Lo, 0x3dea39ef35793c76)
PAIR(polarL1, 0x3fe5555555555593)
PAIR(polarL2, 0x3fd999999997fa04)
PAIR(polarL3, 0x3fd2492494229359)
PAIR(polarL4, 0x3fcc71c51d8e78af)
PAIR(polarL5, 0x3fc7466496cb03de)
PAIR(polarL6, 0x3fc39a09d078c69f)
PAIR(polarL7, 0x3fc2f112df3e5244)

// The logarithm below is math.Log's amd64 assembly (math/log_amd64.s)
// from the Frexp step on, one lane per argument: every scalar …SD
// instruction is its packed …PD twin with the same operands in the same
// order, so the register comments carry over. Only the exponent
// extraction differs: the scalar code shifts a general register and
// converts it with CVTSL2SD; here PSRLQ shifts both lanes, PSHUFD packs
// their low words and CVTPL2PD converts them, which gives the same
// integers and so the same k.

// func polarPairs(u, s []float64)
TEXT ·polarPairs(SB), NOSPLIT, $0-48
	MOVQ u_base+0(FP), SI
	MOVQ u_len+8(FP), CX
	MOVQ s_base+24(FP), DI
	SHRQ $1, CX
	JEQ  done

loop:
	MOVUPD (DI), X0
	// f1, ki := math.Frexp(x); k := float64(ki)
	MOVAPD X0, X2
	ANDPD  polarMant<>(SB), X2
	ORPD   polarHalf<>(SB), X2  // x2= f1
	PSRLQ  $52, X0              // x > 0: the sign bit is clear
	PSHUFD $0x08, X0, X1
	PSUBL  polarBias<>(SB), X1
	CVTPL2PD X1, X1             // x1= k, x2= f1
	// if f1 < math.Sqrt2/2 { k -= 1; f1 *= 2 }
	MOVAPD polarHSqrt2<>(SB), X0
	CMPPD  X2, X0, 5            // cmpnlt; x0= 0 or ^0
	MOVAPD polarOne<>(SB), X3
	ANDPD  X0, X3               // x3= 0 or 1
	SUBPD  X3, X1
	MOVAPD polarOne<>(SB), X0
	ADDPD  X0, X3               // x3= 1 or 2
	MULPD  X3, X2
	// f := f1 - 1
	SUBPD  X0, X2               // x1= k, x2= f
	// s := f / (2 + f)
	MOVAPD polarTwo<>(SB), X0
	ADDPD  X2, X0
	MOVAPD X2, X3
	DIVPD  X0, X3               // x3= s
	// s2 := s * s
	MOVAPD X3, X4
	MULPD  X4, X4               // x4= s2
	// s4 := s2 * s2
	MOVAPD X4, X5
	MULPD  X5, X5               // x5= s4
	// t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7)))
	MOVAPD polarL7<>(SB), X6
	MULPD  X5, X6
	ADDPD  polarL5<>(SB), X6
	MULPD  X5, X6
	ADDPD  polarL3<>(SB), X6
	MULPD  X5, X6
	ADDPD  polarL1<>(SB), X6
	MULPD  X6, X4               // x4= t1
	// t2 := s4 * (L2 + s4*(L4+s4*L6))
	MOVAPD polarL6<>(SB), X6
	MULPD  X5, X6
	ADDPD  polarL4<>(SB), X6
	MULPD  X5, X6
	ADDPD  polarL2<>(SB), X6
	MULPD  X6, X5               // x5= t2
	// R := t1 + t2
	ADDPD  X5, X4               // x4= R
	// hfsq := 0.5 * f * f
	MOVAPD polarHalf<>(SB), X0
	MULPD  X2, X0
	MULPD  X2, X0               // x0= hfsq
	// return k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
	ADDPD  X0, X4
	MULPD  X4, X3               // x3= s*(hfsq+R)
	MOVAPD polarLn2Lo<>(SB), X4
	MULPD  X1, X4
	ADDPD  X4, X3               // x3= s*(hfsq+R)+k*Ln2Lo
	SUBPD  X3, X0
	SUBPD  X2, X0               // x0= (hfsq-(s*(hfsq+R)+k*Ln2Lo))-f
	MULPD  polarLn2Hi<>(SB), X1
	SUBPD  X0, X1               // x1= log(x)

	// u * math.Sqrt(-2 * log(x) / x)
	MULPD  polarMinus2<>(SB), X1
	MOVUPD (DI), X0
	DIVPD  X0, X1
	SQRTPD X1, X1
	MOVUPD (SI), X0
	MULPD  X1, X0
	MOVUPD X0, (SI)

	ADDQ $16, SI
	ADDQ $16, DI
	DECQ CX
	JNZ  loop

done:
	RET
