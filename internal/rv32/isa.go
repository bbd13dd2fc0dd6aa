// Package rv32 implements an RV32IM instruction-set simulator in the style
// of the PicoRV32 core the paper runs SEAL on, together with a small
// assembler. The simulator emits one event per executed instruction
// (register writes, memory traffic, cycle counts), which the power package
// turns into synthetic side-channel traces.
package rv32

import "fmt"

// Op enumerates the RV32IM operations the simulator supports.
type Op int

// RV32I base + M extension opcodes.
const (
	OpInvalid Op = iota
	OpLUI
	OpAUIPC
	OpJAL
	OpJALR
	OpBEQ
	OpBNE
	OpBLT
	OpBGE
	OpBLTU
	OpBGEU
	OpLB
	OpLH
	OpLW
	OpLBU
	OpLHU
	OpSB
	OpSH
	OpSW
	OpADDI
	OpSLTI
	OpSLTIU
	OpXORI
	OpORI
	OpANDI
	OpSLLI
	OpSRLI
	OpSRAI
	OpADD
	OpSUB
	OpSLL
	OpSLT
	OpSLTU
	OpXOR
	OpSRL
	OpSRA
	OpOR
	OpAND
	OpMUL
	OpMULH
	OpMULHSU
	OpMULHU
	OpDIV
	OpDIVU
	OpREM
	OpREMU
	OpECALL
	OpEBREAK
)

var opNames = map[Op]string{
	OpLUI: "lui", OpAUIPC: "auipc", OpJAL: "jal", OpJALR: "jalr",
	OpBEQ: "beq", OpBNE: "bne", OpBLT: "blt", OpBGE: "bge",
	OpBLTU: "bltu", OpBGEU: "bgeu",
	OpLB: "lb", OpLH: "lh", OpLW: "lw", OpLBU: "lbu", OpLHU: "lhu",
	OpSB: "sb", OpSH: "sh", OpSW: "sw",
	OpADDI: "addi", OpSLTI: "slti", OpSLTIU: "sltiu", OpXORI: "xori",
	OpORI: "ori", OpANDI: "andi", OpSLLI: "slli", OpSRLI: "srli", OpSRAI: "srai",
	OpADD: "add", OpSUB: "sub", OpSLL: "sll", OpSLT: "slt", OpSLTU: "sltu",
	OpXOR: "xor", OpSRL: "srl", OpSRA: "sra", OpOR: "or", OpAND: "and",
	OpMUL: "mul", OpMULH: "mulh", OpMULHSU: "mulhsu", OpMULHU: "mulhu",
	OpDIV: "div", OpDIVU: "divu", OpREM: "rem", OpREMU: "remu",
	OpECALL: "ecall", OpEBREAK: "ebreak",
}

// String returns the assembler mnemonic.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Class groups operations for the power model's per-class base cost.
type Class int

// Instruction classes.
const (
	ClassALU Class = iota
	ClassALUImm
	ClassBranch
	ClassJump
	ClassLoad
	ClassStore
	ClassMulDiv
	ClassSystem
)

// Class returns the instruction class of o.
func (o Op) Class() Class {
	switch o {
	case OpLUI, OpAUIPC, OpADD, OpSUB, OpSLL, OpSLT, OpSLTU, OpXOR, OpSRL, OpSRA, OpOR, OpAND:
		return ClassALU
	case OpADDI, OpSLTI, OpSLTIU, OpXORI, OpORI, OpANDI, OpSLLI, OpSRLI, OpSRAI:
		return ClassALUImm
	case OpBEQ, OpBNE, OpBLT, OpBGE, OpBLTU, OpBGEU:
		return ClassBranch
	case OpJAL, OpJALR:
		return ClassJump
	case OpLB, OpLH, OpLW, OpLBU, OpLHU:
		return ClassLoad
	case OpSB, OpSH, OpSW:
		return ClassStore
	case OpMUL, OpMULH, OpMULHSU, OpMULHU, OpDIV, OpDIVU, OpREM, OpREMU:
		return ClassMulDiv
	default:
		return ClassSystem
	}
}

// Cycles returns the cycle cost of the instruction class on a PicoRV32-like
// multi-cycle core (no pipeline): regular ops take a handful of cycles,
// memory a few more, and mul/div go through the sequential multiplier.
func (o Op) Cycles() int {
	switch o.Class() {
	case ClassALU, ClassALUImm:
		return 3
	case ClassBranch:
		return 3
	case ClassJump:
		return 4
	case ClassLoad:
		return 5
	case ClassStore:
		return 5
	case ClassMulDiv:
		return 36
	default:
		return 3
	}
}

// Instr is a decoded instruction.
type Instr struct {
	Op  Op
	Rd  int
	Rs1 int
	Rs2 int
	Imm int32
	Raw uint32
}

// Operations by funct3 for the opcodes whose funct3 alone selects the
// operation; OpInvalid marks an encoding Decode rejects.
var (
	branchOps = [8]Op{OpBEQ, OpBNE, OpInvalid, OpInvalid, OpBLT, OpBGE, OpBLTU, OpBGEU}
	loadOps   = [8]Op{OpLB, OpLH, OpLW, OpInvalid, OpLBU, OpLHU, OpInvalid, OpInvalid}
	storeOps  = [8]Op{OpSB, OpSH, OpSW, OpInvalid, OpInvalid, OpInvalid, OpInvalid, OpInvalid}
	mulDivOps = [8]Op{OpMUL, OpMULH, OpMULHSU, OpMULHU, OpDIV, OpDIVU, OpREM, OpREMU}
)

// Decode decodes a 32-bit instruction word.
func Decode(word uint32) (Instr, error) {
	opcode := word & 0x7f
	rd := int((word >> 7) & 0x1f)
	funct3 := (word >> 12) & 0x7
	rs1 := int((word >> 15) & 0x1f)
	rs2 := int((word >> 20) & 0x1f)
	funct7 := (word >> 25) & 0x7f

	in := Instr{Rd: rd, Rs1: rs1, Rs2: rs2, Raw: word}
	switch opcode {
	case 0x37:
		in.Op = OpLUI
		in.Imm = int32(word & 0xfffff000)
	case 0x17:
		in.Op = OpAUIPC
		in.Imm = int32(word & 0xfffff000)
	case 0x6f:
		in.Op = OpJAL
		in.Imm = immJ(word)
	case 0x67:
		if funct3 != 0 {
			return in, fmt.Errorf("rv32: bad JALR funct3 %d", funct3)
		}
		in.Op = OpJALR
		in.Imm = immI(word)
	case 0x63:
		if branchOps[funct3] == OpInvalid {
			return in, fmt.Errorf("rv32: bad branch funct3 %d", funct3)
		}
		in.Op = branchOps[funct3]
		in.Imm = immB(word)
	case 0x03:
		if loadOps[funct3] == OpInvalid {
			return in, fmt.Errorf("rv32: bad load funct3 %d", funct3)
		}
		in.Op = loadOps[funct3]
		in.Imm = immI(word)
	case 0x23:
		if storeOps[funct3] == OpInvalid {
			return in, fmt.Errorf("rv32: bad store funct3 %d", funct3)
		}
		in.Op = storeOps[funct3]
		in.Imm = immS(word)
	case 0x13:
		switch funct3 {
		case 0:
			in.Op = OpADDI
		case 2:
			in.Op = OpSLTI
		case 3:
			in.Op = OpSLTIU
		case 4:
			in.Op = OpXORI
		case 6:
			in.Op = OpORI
		case 7:
			in.Op = OpANDI
		case 1:
			if funct7 != 0 {
				return in, fmt.Errorf("rv32: bad SLLI funct7 %#x", funct7)
			}
			in.Op = OpSLLI
			in.Imm = int32(rs2)
			return in, nil
		case 5:
			switch funct7 {
			case 0:
				in.Op = OpSRLI
			case 0x20:
				in.Op = OpSRAI
			default:
				return in, fmt.Errorf("rv32: bad shift funct7 %#x", funct7)
			}
			in.Imm = int32(rs2)
			return in, nil
		}
		in.Imm = immI(word)
	case 0x33:
		if funct7 == 1 {
			in.Op = mulDivOps[funct3]
			return in, nil
		}
		switch funct3 {
		case 0:
			switch funct7 {
			case 0:
				in.Op = OpADD
			case 0x20:
				in.Op = OpSUB
			default:
				return in, fmt.Errorf("rv32: bad ADD/SUB funct7 %#x", funct7)
			}
		case 1:
			in.Op = OpSLL
		case 2:
			in.Op = OpSLT
		case 3:
			in.Op = OpSLTU
		case 4:
			in.Op = OpXOR
		case 5:
			switch funct7 {
			case 0:
				in.Op = OpSRL
			case 0x20:
				in.Op = OpSRA
			default:
				return in, fmt.Errorf("rv32: bad SRL/SRA funct7 %#x", funct7)
			}
		case 6:
			in.Op = OpOR
		case 7:
			in.Op = OpAND
		}
	case 0x73:
		switch word {
		case 0x00000073:
			in.Op = OpECALL
		case 0x00100073:
			in.Op = OpEBREAK
		default:
			return in, fmt.Errorf("rv32: unsupported system instruction %#x", word)
		}
	default:
		return in, fmt.Errorf("rv32: unsupported opcode %#x", opcode)
	}
	return in, nil
}

func immI(w uint32) int32 { return int32(w) >> 20 }

func immS(w uint32) int32 {
	return int32(w&0xfe000000)>>20 | int32((w>>7)&0x1f)
}

func immB(w uint32) int32 {
	imm := ((w>>31)&1)<<12 | ((w>>7)&1)<<11 | ((w>>25)&0x3f)<<5 | ((w>>8)&0xf)<<1
	return int32(imm<<19) >> 19
}

func immJ(w uint32) int32 {
	imm := ((w>>31)&1)<<20 | ((w>>12)&0xff)<<12 | ((w>>20)&1)<<11 | ((w>>21)&0x3ff)<<1
	return int32(imm<<11) >> 11
}
