// Package vm implements the simulated compute fabric on which the AV
// agent's computation runs: a register-based virtual machine with a small
// RISC-style ISA, separate CPU-class and GPU-class devices, data memory,
// traps, and a writeback hook that is the fault-injection point.
//
// This plays the role of the paper's real hardware + NVBitFI/PinFI stack:
// the paper's fault model is "XOR the destination register of (one | all)
// dynamic instance(s) of an opcode", which maps directly onto the
// writeback hook here. Programs are built with the Builder assembler and
// executed by a Machine; all agent-visible state (sensor buffers, network
// activations, controller integrators) lives in Machine memory, so
// injected corruption propagates across time steps exactly as a corrupted
// process state would.
package vm

import "fmt"

// Opcode identifies an instruction. The ISA is deliberately small
// (~36 opcodes, vs 171 SASS / 131 x86 opcodes in the paper's campaigns);
// permanent-fault campaigns sweep all of them.
type Opcode uint8

// The instruction set. F-prefixed opcodes write a float register,
// I-prefixed opcodes write an int register, LD writes a float register
// from memory, ST writes memory, and control-flow opcodes write nothing.
const (
	// Float arithmetic: f[Dst] = f[A] op f[B] (FMA adds f[C]·f[B] style).
	FADD Opcode = iota
	FSUB
	FMUL
	FDIV
	FMA // f[Dst] = f[A]*f[B] + f[C]
	FMIN
	FMAX
	FABS  // f[Dst] = |f[A]|
	FNEG  // f[Dst] = -f[A]
	FSQRT // f[Dst] = sqrt(f[A]); sqrt of negative yields NaN (no trap)
	FEXP  // f[Dst] = exp(f[A])
	FTANH // f[Dst] = tanh(f[A])
	FMOV  // f[Dst] = f[A]
	FMOVI // f[Dst] = Imm
	FSEL  // f[Dst] = r[C] != 0 ? f[A] : f[B]
	ITOF  // f[Dst] = float64(r[A])

	// Integer arithmetic: r[Dst] = r[A] op r[B].
	IADD
	ISUB
	IMUL
	IAND
	IOR
	IXOR
	ISHL // r[Dst] = r[A] << (r[B] & 63)
	ISHR // r[Dst] = r[A] >> (r[B] & 63) (arithmetic)
	IMOV // r[Dst] = r[A]
	IMOVI
	IADDI // r[Dst] = r[A] + IImm
	FTOI  // r[Dst] = int64(f[A]) (truncation; NaN/overflow saturate)

	// Comparisons write 0/1 into an int register.
	ICMPLT // r[Dst] = r[A] < r[B]
	ICMPEQ // r[Dst] = r[A] == r[B]
	FCMPLT // r[Dst] = f[A] < f[B]
	FCMPLE // r[Dst] = f[A] <= f[B]

	// Memory: word-addressed float64 data memory.
	LD // f[Dst] = mem[r[A] + IImm]
	ST // mem[r[A] + IImm] = f[B]

	// Control flow. Branch targets are absolute instruction indices,
	// resolved by the Builder from labels.
	JMP  // pc = IImm
	BEQZ // if r[A] == 0: pc = IImm
	BNEZ // if r[A] != 0: pc = IImm
	HALT

	numOpcodes
)

// NumOpcodes is the size of the ISA; permanent-fault campaigns iterate
// over [0, NumOpcodes).
const NumOpcodes = int(numOpcodes)

var opcodeNames = [...]string{
	FADD: "FADD", FSUB: "FSUB", FMUL: "FMUL", FDIV: "FDIV", FMA: "FMA",
	FMIN: "FMIN", FMAX: "FMAX", FABS: "FABS", FNEG: "FNEG", FSQRT: "FSQRT",
	FEXP: "FEXP", FTANH: "FTANH", FMOV: "FMOV", FMOVI: "FMOVI", FSEL: "FSEL",
	ITOF: "ITOF", IADD: "IADD", ISUB: "ISUB", IMUL: "IMUL", IAND: "IAND",
	IOR: "IOR", IXOR: "IXOR", ISHL: "ISHL", ISHR: "ISHR", IMOV: "IMOV",
	IMOVI: "IMOVI", IADDI: "IADDI", FTOI: "FTOI", ICMPLT: "ICMPLT",
	ICMPEQ: "ICMPEQ", FCMPLT: "FCMPLT", FCMPLE: "FCMPLE", LD: "LD", ST: "ST",
	JMP: "JMP", BEQZ: "BEQZ", BNEZ: "BNEZ", HALT: "HALT",
}

// String returns the mnemonic for the opcode.
func (o Opcode) String() string {
	if int(o) < len(opcodeNames) && opcodeNames[o] != "" {
		return opcodeNames[o]
	}
	return fmt.Sprintf("OP(%d)", uint8(o))
}

// DestKind describes what an opcode writes, which is what a fault
// corrupts.
type DestKind uint8

// Destination kinds. DestNone opcodes (control flow) are not valid fault
// targets, mirroring injectors that only corrupt destination registers.
const (
	DestNone  DestKind = iota
	DestFloat          // a float register
	DestInt            // an int register
	DestMem            // a memory word (ST)
)

// Dest returns what the opcode writes.
func (o Opcode) Dest() DestKind {
	switch o {
	case FADD, FSUB, FMUL, FDIV, FMA, FMIN, FMAX, FABS, FNEG, FSQRT,
		FEXP, FTANH, FMOV, FMOVI, FSEL, ITOF, LD:
		return DestFloat
	case IADD, ISUB, IMUL, IAND, IOR, IXOR, ISHL, ISHR, IMOV, IMOVI,
		IADDI, FTOI, ICMPLT, ICMPEQ, FCMPLT, FCMPLE:
		return DestInt
	case ST:
		return DestMem
	default:
		return DestNone
	}
}

// OpMask is a set of opcodes, bit i standing for Opcode(i). A fault
// hook's scope is one OpMask per device (see Machine.SetScopedHook).
type OpMask uint64

// MaskOf returns the set holding exactly ops.
func MaskOf(ops ...Opcode) OpMask {
	var m OpMask
	for _, op := range ops {
		m |= 1 << op
	}
	return m
}

// Has reports whether op is in the set. Undefined opcodes shift out of
// the word and are never members.
func (m OpMask) Has(op Opcode) bool { return m&(1<<op) != 0 }

// WritebackOps is every opcode that writes a destination (Dest() !=
// DestNone): the opcodes a fault hook can be offered, and the widest
// scope a hook can have.
var WritebackOps = func() OpMask {
	var m OpMask
	for op := Opcode(0); op < numOpcodes; op++ {
		if op.Dest() != DestNone {
			m |= MaskOf(op)
		}
	}
	return m
}()

// Instr is one instruction. Field use depends on the opcode; see the
// opcode comments. Imm carries float immediates, IImm carries integer
// immediates, memory offsets, and branch targets.
type Instr struct {
	Op   Opcode
	Dst  uint16
	A    uint16
	B    uint16
	C    uint16
	Imm  float64
	IImm int64
}

// String disassembles the instruction.
func (in Instr) String() string {
	switch in.Op {
	case FMOVI:
		return fmt.Sprintf("%s f%d, %g", in.Op, in.Dst, in.Imm)
	case IMOVI:
		return fmt.Sprintf("%s r%d, %d", in.Op, in.Dst, in.IImm)
	case IADDI:
		return fmt.Sprintf("%s r%d, r%d, %d", in.Op, in.Dst, in.A, in.IImm)
	case LD:
		return fmt.Sprintf("%s f%d, [r%d+%d]", in.Op, in.Dst, in.A, in.IImm)
	case ST:
		return fmt.Sprintf("%s [r%d+%d], f%d", in.Op, in.A, in.IImm, in.B)
	case JMP:
		return fmt.Sprintf("%s %d", in.Op, in.IImm)
	case BEQZ, BNEZ:
		return fmt.Sprintf("%s r%d, %d", in.Op, in.A, in.IImm)
	case HALT:
		return "HALT"
	case FSEL:
		return fmt.Sprintf("%s f%d, f%d, f%d, r%d", in.Op, in.Dst, in.A, in.B, in.C)
	case FMA:
		return fmt.Sprintf("%s f%d, f%d, f%d, f%d", in.Op, in.Dst, in.A, in.B, in.C)
	default:
		return fmt.Sprintf("%s %d, %d, %d", in.Op, in.Dst, in.A, in.B)
	}
}

// Program is an executable sequence of instructions, produced by a
// Builder. plan is the optional tier-1 compilation (fused
// superinstruction kernels); see fuse.go. haltTail is how many
// instructions every clean HALT executes after the run's last
// writeback, 0 when the program's shape does not fix that number (see
// haltTail).
type Program struct {
	Name     string
	Code     []Instr
	entry    int
	plan     *fusionPlan
	haltTail uint64
}

// haltTail returns 1 when every HALT of code is entered only by falling
// through from a writeback — no branch targets the HALT, and the
// instruction before it writes a destination — so a run that halts
// cleanly executed its last writeback exactly one instruction before
// the HALT. It returns 0 for any other shape, including a program with
// no HALT. Agent programs all end `writeback; HALT`, which is what lets
// a profiling observer stop watching writebacks early and still recover
// the index of the last one (Machine.LastWriteback).
func haltTail(code []Instr) uint64 {
	target := make(map[int64]bool)
	for _, in := range code {
		switch in.Op {
		case JMP, BEQZ, BNEZ:
			target[in.IImm] = true
		}
	}
	halts := 0
	for pc, in := range code {
		if in.Op != HALT {
			continue
		}
		if pc == 0 || code[pc-1].Op.Dest() == DestNone || target[int64(pc)] {
			return 0
		}
		halts++
	}
	if halts == 0 {
		return 0
	}
	return 1
}

// Len returns the static instruction count.
func (p *Program) Len() int { return len(p.Code) }

// FusedKernels returns the fusion-catalog names of the tier-1 kernels
// compiled for this program, in entry-pc order (nil when nothing fused).
// Tests use it to pin which idioms actually fuse.
func (p *Program) FusedKernels() []string {
	if p.plan == nil {
		return nil
	}
	names := make([]string, len(p.plan.kernels))
	for i := range p.plan.kernels {
		names[i] = p.plan.kernels[i].name
	}
	return names
}
