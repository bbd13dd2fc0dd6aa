package rv32

import "fmt"

// Test accessors: direct RAM reads and relative-offset disassembly.

// ReadWord reads RAM directly (test/debug helper, no MMIO).
func (c *CPU) ReadWord(addr uint32) (uint32, error) {
	if int(addr)+4 > len(c.Mem) {
		return 0, fmt.Errorf("rv32: ReadWord at %#x out of bounds", addr)
	}
	return uint32(c.Mem[addr]) | uint32(c.Mem[addr+1])<<8 |
		uint32(c.Mem[addr+2])<<16 | uint32(c.Mem[addr+3])<<24, nil
}

// Disasm renders a decoded instruction as assembler text using ABI
// register names. Branch and jump targets are shown as relative offsets;
// use DisasmAt to render re-assemblable absolute targets.
func (in Instr) Disasm() string {
	return in.disasm(nil)
}
