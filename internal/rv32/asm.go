package rv32

import (
	"fmt"
	"strconv"
	"strings"
)

// Assemble translates RV32IM assembly source into a flat binary image
// starting at the given base address. It supports:
//
//   - all RV32IM instructions by their standard mnemonics;
//   - pseudo-instructions: nop, mv, li, la, j, jr, ret, call, beqz, bnez,
//     neg, not, seqz, snez;
//   - labels ("name:"), the ".word" data directive, and "#"/"//" comments;
//   - numeric literals in decimal or 0x-hex, and "%lo(label)/%hi(label)".
//
// Instructions are encoded little-endian at 4-byte granularity.
func Assemble(src string, base uint32) ([]byte, map[string]uint32, error) {
	lines := strings.Split(src, "\n")

	type item struct {
		line   int
		mnem   string
		args   []string
		addr   uint32
		nWords int
	}

	// Pass 1: tokenize, expand pseudo sizes, assign addresses, bind labels.
	labels := map[string]uint32{}
	var items []item
	addr := base
	for ln, raw := range lines {
		line := stripComment(raw)
		for {
			line = strings.TrimSpace(line)
			if idx := strings.Index(line, ":"); idx >= 0 && isLabel(line[:idx]) {
				name := line[:idx]
				if _, dup := labels[name]; dup {
					return nil, nil, fmt.Errorf("line %d: duplicate label %q", ln+1, name)
				}
				labels[name] = addr
				line = line[idx+1:]
				continue
			}
			break
		}
		if line == "" {
			continue
		}
		mnem, args := splitInstr(line)
		n, err := wordCount(mnem, args)
		if err != nil {
			return nil, nil, fmt.Errorf("line %d: %v", ln+1, err)
		}
		items = append(items, item{line: ln + 1, mnem: mnem, args: args, addr: addr, nWords: n})
		addr += uint32(4 * n)
	}

	// Pass 2: encode.
	var out []byte
	for _, it := range items {
		words, err := encodeItem(it.mnem, it.args, it.addr, labels)
		if err != nil {
			return nil, nil, fmt.Errorf("line %d: %v", it.line, err)
		}
		if len(words) != it.nWords {
			return nil, nil, fmt.Errorf("line %d: internal size mismatch for %s", it.line, it.mnem)
		}
		for _, w := range words {
			out = append(out, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
		}
	}
	return out, labels, nil
}

func stripComment(s string) string {
	if i := strings.Index(s, "#"); i >= 0 {
		s = s[:i]
	}
	if i := strings.Index(s, "//"); i >= 0 {
		s = s[:i]
	}
	return s
}

func isLabel(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == '.':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func splitInstr(line string) (string, []string) {
	fields := strings.FieldsFunc(line, func(r rune) bool { return r == ' ' || r == '\t' })
	mnem := strings.ToLower(fields[0])
	rest := strings.Join(fields[1:], " ")
	if rest == "" {
		return mnem, nil
	}
	parts := strings.Split(rest, ",")
	args := make([]string, 0, len(parts))
	for _, p := range parts {
		args = append(args, strings.TrimSpace(p))
	}
	return mnem, args
}

// wordCount returns how many 32-bit words an item expands to.
func wordCount(mnem string, args []string) (int, error) {
	switch mnem {
	case "li":
		if len(args) != 2 {
			return 0, fmt.Errorf("li needs 2 args")
		}
		v, err := parseImm(args[1], nil)
		if err != nil {
			return 0, err
		}
		if fitsImm12(v) {
			return 1, nil
		}
		return 2, nil
	case "la", "call":
		return 2, nil
	case ".word":
		return len(args), nil
	default:
		return 1, nil
	}
}

var regNames = func() map[string]int {
	m := map[string]int{}
	for i := 0; i < 32; i++ {
		m[fmt.Sprintf("x%d", i)] = i
	}
	abi := []string{"zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
		"s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7",
		"s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11",
		"t3", "t4", "t5", "t6"}
	for i, n := range abi {
		m[n] = i
	}
	m["fp"] = 8
	return m
}()

func parseReg(s string) (int, error) {
	if r, ok := regNames[strings.ToLower(s)]; ok {
		return r, nil
	}
	return 0, fmt.Errorf("unknown register %q", s)
}

// parseImm parses an immediate: decimal, hex, a label (if labels != nil),
// or %lo()/%hi() of a label.
func parseImm(s string, labels map[string]uint32) (int32, error) {
	s = strings.TrimSpace(s)
	if strings.HasPrefix(s, "%lo(") && strings.HasSuffix(s, ")") {
		v, err := parseImm(s[4:len(s)-1], labels)
		if err != nil {
			return 0, err
		}
		return int32(uint32(v)<<20) >> 20, nil
	}
	if strings.HasPrefix(s, "%hi(") && strings.HasSuffix(s, ")") {
		v, err := parseImm(s[4:len(s)-1], labels)
		if err != nil {
			return 0, err
		}
		// Compensate for the sign extension of the %lo part.
		return int32((uint32(v) + 0x800) >> 12), nil
	}
	if v, err := strconv.ParseInt(s, 0, 64); err == nil {
		if v < -(1<<31) || v > (1<<32)-1 {
			return 0, fmt.Errorf("immediate %s out of 32-bit range", s)
		}
		return int32(uint32(v)), nil
	}
	if labels != nil {
		if a, ok := labels[s]; ok {
			return int32(a), nil
		}
	}
	return 0, fmt.Errorf("cannot parse immediate %q", s)
}

func fitsImm12(v int32) bool { return v >= -2048 && v < 2048 }

// parseMem parses "imm(reg)" operands.
func parseMem(s string, labels map[string]uint32) (int32, int, error) {
	open := strings.Index(s, "(")
	close_ := strings.LastIndex(s, ")")
	if open < 0 || close_ < open {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	immStr := strings.TrimSpace(s[:open])
	if immStr == "" {
		immStr = "0"
	}
	imm, err := parseImm(immStr, labels)
	if err != nil {
		return 0, 0, err
	}
	reg, err := parseReg(strings.TrimSpace(s[open+1 : close_]))
	if err != nil {
		return 0, 0, err
	}
	return imm, reg, nil
}

func encodeItem(mnem string, args []string, addr uint32, labels map[string]uint32) ([]uint32, error) {
	switch mnem {
	case ".word":
		var ws []uint32
		for _, a := range args {
			v, err := parseImm(a, labels)
			if err != nil {
				return nil, err
			}
			ws = append(ws, uint32(v))
		}
		return ws, nil
	case "nop":
		return []uint32{encodeI(0x13, 0, 0, 0, 0)}, nil
	case "mv":
		rd, rs, err := twoRegs(args)
		if err != nil {
			return nil, err
		}
		return []uint32{encodeI(0x13, 0, rd, rs, 0)}, nil
	case "not":
		rd, rs, err := twoRegs(args)
		if err != nil {
			return nil, err
		}
		return []uint32{encodeI(0x13, 4, rd, rs, -1)}, nil
	case "neg":
		rd, rs, err := twoRegs(args)
		if err != nil {
			return nil, err
		}
		return []uint32{encodeR(0x33, 0, 0x20, rd, 0, rs)}, nil
	case "seqz":
		rd, rs, err := twoRegs(args)
		if err != nil {
			return nil, err
		}
		return []uint32{encodeI(0x13, 3, rd, rs, 1)}, nil
	case "snez":
		rd, rs, err := twoRegs(args)
		if err != nil {
			return nil, err
		}
		return []uint32{encodeR(0x33, 3, 0, rd, 0, rs)}, nil
	case "li":
		if len(args) != 2 {
			return nil, fmt.Errorf("li needs 2 args")
		}
		rd, err := parseReg(args[0])
		if err != nil {
			return nil, err
		}
		v, err := parseImm(args[1], labels)
		if err != nil {
			return nil, err
		}
		if fitsImm12(v) {
			return []uint32{encodeI(0x13, 0, rd, 0, v)}, nil
		}
		hi := (uint32(v) + 0x800) & 0xfffff000
		lo := int32(uint32(v)-hi) << 20 >> 20
		return []uint32{encodeU(0x37, rd, hi), encodeI(0x13, 0, rd, rd, lo)}, nil
	case "la":
		if len(args) != 2 {
			return nil, fmt.Errorf("la needs 2 args")
		}
		rd, err := parseReg(args[0])
		if err != nil {
			return nil, err
		}
		v, err := parseImm(args[1], labels)
		if err != nil {
			return nil, err
		}
		hi := (uint32(v) + 0x800) & 0xfffff000
		lo := int32(uint32(v)-hi) << 20 >> 20
		return []uint32{encodeU(0x37, rd, hi), encodeI(0x13, 0, rd, rd, lo)}, nil
	case "j":
		if len(args) != 1 {
			return nil, fmt.Errorf("j needs 1 arg")
		}
		off, err := branchOffset(mnem, args[0], addr, labels, jumpBits)
		if err != nil {
			return nil, err
		}
		return []uint32{encodeJ(0x6f, 0, off)}, nil
	case "jal":
		// Accept both "jal label" (rd=ra) and "jal rd, label".
		switch len(args) {
		case 1:
			off, err := branchOffset(mnem, args[0], addr, labels, jumpBits)
			if err != nil {
				return nil, err
			}
			return []uint32{encodeJ(0x6f, 1, off)}, nil
		case 2:
			rd, err := parseReg(args[0])
			if err != nil {
				return nil, err
			}
			off, err := branchOffset(mnem, args[1], addr, labels, jumpBits)
			if err != nil {
				return nil, err
			}
			return []uint32{encodeJ(0x6f, rd, off)}, nil
		default:
			return nil, fmt.Errorf("jal needs 1 or 2 args")
		}
	case "call":
		if len(args) != 1 {
			return nil, fmt.Errorf("call needs 1 arg")
		}
		target, err := parseImm(args[0], labels)
		if err != nil {
			return nil, err
		}
		// auipc ra, hi; jalr ra, lo(ra)
		rel := uint32(target) - addr
		hi := (rel + 0x800) & 0xfffff000
		lo := int32(rel-hi) << 20 >> 20
		return []uint32{encodeU(0x17, 1, hi), encodeI(0x67, 0, 1, 1, lo)}, nil
	case "jr":
		if len(args) != 1 {
			return nil, fmt.Errorf("jr needs 1 arg")
		}
		rs, err := parseReg(args[0])
		if err != nil {
			return nil, err
		}
		return []uint32{encodeI(0x67, 0, 0, rs, 0)}, nil
	case "ret":
		return []uint32{encodeI(0x67, 0, 0, 1, 0)}, nil
	case "beqz", "bnez":
		if len(args) != 2 {
			return nil, fmt.Errorf("%s needs 2 args", mnem)
		}
		rs, err := parseReg(args[0])
		if err != nil {
			return nil, err
		}
		off, err := branchOffset(mnem, args[1], addr, labels, branchBits)
		if err != nil {
			return nil, err
		}
		f3 := uint32(0)
		if mnem == "bnez" {
			f3 = 1
		}
		return []uint32{encodeB(0x63, f3, rs, 0, off)}, nil
	case "ecall":
		return []uint32{0x00000073}, nil
	case "ebreak":
		return []uint32{0x00100073}, nil
	case "lui", "auipc":
		if len(args) != 2 {
			return nil, fmt.Errorf("%s needs 2 args", mnem)
		}
		rd, err := parseReg(args[0])
		if err != nil {
			return nil, err
		}
		v, err := parseImm(args[1], labels)
		if err != nil {
			return nil, err
		}
		op := uint32(0x37)
		if mnem == "auipc" {
			op = 0x17
		}
		// Accept both raw 20-bit values and full 32-bit constants.
		imm := uint32(v)
		if imm < 1<<20 {
			imm <<= 12
		}
		return []uint32{encodeU(op, rd, imm&0xfffff000)}, nil
	}

	// Branches.
	if f3, ok := map[string]uint32{"beq": 0, "bne": 1, "blt": 4, "bge": 5, "bltu": 6, "bgeu": 7}[mnem]; ok {
		if len(args) != 3 {
			return nil, fmt.Errorf("%s needs 3 args", mnem)
		}
		rs1, err := parseReg(args[0])
		if err != nil {
			return nil, err
		}
		rs2, err := parseReg(args[1])
		if err != nil {
			return nil, err
		}
		off, err := branchOffset(mnem, args[2], addr, labels, branchBits)
		if err != nil {
			return nil, err
		}
		return []uint32{encodeB(0x63, f3, rs1, rs2, off)}, nil
	}

	// Loads.
	if f3, ok := map[string]uint32{"lb": 0, "lh": 1, "lw": 2, "lbu": 4, "lhu": 5}[mnem]; ok {
		if len(args) != 2 {
			return nil, fmt.Errorf("%s needs 2 args", mnem)
		}
		rd, err := parseReg(args[0])
		if err != nil {
			return nil, err
		}
		imm, rs1, err := parseMem(args[1], labels)
		if err != nil {
			return nil, err
		}
		if !fitsImm12(imm) {
			return nil, fmt.Errorf("%s offset %d out of range", mnem, imm)
		}
		return []uint32{encodeI(0x03, f3, rd, rs1, imm)}, nil
	}

	// Stores.
	if f3, ok := map[string]uint32{"sb": 0, "sh": 1, "sw": 2}[mnem]; ok {
		if len(args) != 2 {
			return nil, fmt.Errorf("%s needs 2 args", mnem)
		}
		rs2, err := parseReg(args[0])
		if err != nil {
			return nil, err
		}
		imm, rs1, err := parseMem(args[1], labels)
		if err != nil {
			return nil, err
		}
		if !fitsImm12(imm) {
			return nil, fmt.Errorf("%s offset %d out of range", mnem, imm)
		}
		return []uint32{encodeS(0x23, f3, rs1, rs2, imm)}, nil
	}

	// ALU immediates.
	if f3, ok := map[string]uint32{"addi": 0, "slti": 2, "sltiu": 3, "xori": 4, "ori": 6, "andi": 7}[mnem]; ok {
		rd, rs1, imm, err := regRegImm(args, labels)
		if err != nil {
			return nil, err
		}
		if !fitsImm12(imm) {
			return nil, fmt.Errorf("%s immediate %d out of range", mnem, imm)
		}
		return []uint32{encodeI(0x13, f3, rd, rs1, imm)}, nil
	}
	// Shift immediates.
	if info, ok := map[string]struct{ f3, f7 uint32 }{
		"slli": {1, 0}, "srli": {5, 0}, "srai": {5, 0x20},
	}[mnem]; ok {
		rd, rs1, imm, err := regRegImm(args, labels)
		if err != nil {
			return nil, err
		}
		if imm < 0 || imm > 31 {
			return nil, fmt.Errorf("%s shift amount %d out of range", mnem, imm)
		}
		return []uint32{encodeR(0x13, info.f3, info.f7, rd, rs1, int(imm))}, nil
	}
	// Register-register ALU and M extension.
	if info, ok := map[string]struct{ f3, f7 uint32 }{
		"add": {0, 0}, "sub": {0, 0x20}, "sll": {1, 0}, "slt": {2, 0},
		"sltu": {3, 0}, "xor": {4, 0}, "srl": {5, 0}, "sra": {5, 0x20},
		"or": {6, 0}, "and": {7, 0},
		"mul": {0, 1}, "mulh": {1, 1}, "mulhsu": {2, 1}, "mulhu": {3, 1},
		"div": {4, 1}, "divu": {5, 1}, "rem": {6, 1}, "remu": {7, 1},
	}[mnem]; ok {
		if len(args) != 3 {
			return nil, fmt.Errorf("%s needs 3 args", mnem)
		}
		rd, err := parseReg(args[0])
		if err != nil {
			return nil, err
		}
		rs1, err := parseReg(args[1])
		if err != nil {
			return nil, err
		}
		rs2, err := parseReg(args[2])
		if err != nil {
			return nil, err
		}
		return []uint32{encodeR(0x33, info.f3, info.f7, rd, rs1, rs2)}, nil
	}
	return nil, fmt.Errorf("unknown mnemonic %q", mnem)
}

func twoRegs(args []string) (int, int, error) {
	if len(args) != 2 {
		return 0, 0, fmt.Errorf("need 2 register args")
	}
	rd, err := parseReg(args[0])
	if err != nil {
		return 0, 0, err
	}
	rs, err := parseReg(args[1])
	if err != nil {
		return 0, 0, err
	}
	return rd, rs, nil
}

func regRegImm(args []string, labels map[string]uint32) (int, int, int32, error) {
	if len(args) != 3 {
		return 0, 0, 0, fmt.Errorf("need rd, rs1, imm")
	}
	rd, err := parseReg(args[0])
	if err != nil {
		return 0, 0, 0, err
	}
	rs1, err := parseReg(args[1])
	if err != nil {
		return 0, 0, 0, err
	}
	imm, err := parseImm(args[2], labels)
	if err != nil {
		return 0, 0, 0, err
	}
	return rd, rs1, imm, nil
}

// Offset widths of the pc-relative formats: a branch encodes a signed
// 13-bit offset and a jump a signed 21-bit one, both even.
const (
	branchBits = 13
	jumpBits   = 21
)

// branchOffset returns the offset from addr to a branch or jump target,
// rejecting one the format's bits cannot encode: out of range, or odd.
func branchOffset(mnem, arg string, addr uint32, labels map[string]uint32, bits uint) (int32, error) {
	target, err := parseImm(arg, labels)
	if err != nil {
		return 0, err
	}
	off := int32(uint32(target) - addr)
	if lim := int32(1) << (bits - 1); off < -lim || off >= lim {
		return 0, fmt.Errorf("%s offset %d out of range", mnem, off)
	}
	if off&1 != 0 {
		return 0, fmt.Errorf("%s offset %d is odd", mnem, off)
	}
	return off, nil
}

func encodeU(op uint32, rd int, imm uint32) uint32 {
	return imm&0xfffff000 | uint32(rd)<<7 | op
}

func encodeI(op, f3 uint32, rd, rs1 int, imm int32) uint32 {
	return uint32(imm)<<20 | uint32(rs1)<<15 | f3<<12 | uint32(rd)<<7 | op
}

func encodeR(op, f3, f7 uint32, rd, rs1, rs2 int) uint32 {
	return f7<<25 | uint32(rs2)<<20 | uint32(rs1)<<15 | f3<<12 | uint32(rd)<<7 | op
}

func encodeS(op, f3 uint32, rs1, rs2 int, imm int32) uint32 {
	u := uint32(imm)
	return ((u>>5)&0x7f)<<25 | uint32(rs2)<<20 | uint32(rs1)<<15 | f3<<12 | (u&0x1f)<<7 | op
}

func encodeB(op, f3 uint32, rs1, rs2 int, off int32) uint32 {
	u := uint32(off)
	return ((u>>12)&1)<<31 | ((u>>5)&0x3f)<<25 | uint32(rs2)<<20 | uint32(rs1)<<15 |
		f3<<12 | ((u>>1)&0xf)<<8 | ((u>>11)&1)<<7 | op
}

func encodeJ(op uint32, rd int, off int32) uint32 {
	u := uint32(off)
	return ((u>>20)&1)<<31 | ((u>>1)&0x3ff)<<21 | ((u>>11)&1)<<20 | ((u>>12)&0xff)<<12 |
		uint32(rd)<<7 | op
}
