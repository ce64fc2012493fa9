package vm

import "fmt"

// Label identifies a branch target during program construction.
type Label int

// Builder assembles a Program. It provides one method per opcode plus
// label management; Build resolves labels into absolute targets and
// validates register indices. Register operands are plain ints for
// ergonomic program construction; the Builder checks ranges once at
// build time so the interpreter doesn't have to.
type Builder struct {
	name    string
	code    []Instr
	targets []int   // label -> instruction index (-1 = unbound)
	patches []patch // instructions whose IImm is a label
	errs    []error
}

type patch struct {
	instr int
	label Label
}

// NewBuilder starts a new program with the given name (used in traps and
// profiles).
func NewBuilder(name string) *Builder {
	return &Builder{name: name}
}

// NewLabel allocates an unbound label.
func (b *Builder) NewLabel() Label {
	b.targets = append(b.targets, -1)
	return Label(len(b.targets) - 1)
}

// Bind attaches the label to the next emitted instruction.
func (b *Builder) Bind(l Label) {
	if b.targets[l] != -1 {
		b.errs = append(b.errs, fmt.Errorf("vm: label %d bound twice", l))
		return
	}
	b.targets[l] = len(b.code)
}

// Len returns the number of instructions emitted so far.
func (b *Builder) Len() int { return len(b.code) }

func (b *Builder) checkF(regs ...int) {
	for _, r := range regs {
		if r < 0 || r >= NumFloatRegs {
			b.errs = append(b.errs, fmt.Errorf("vm: float register %d out of range", r))
		}
	}
}

func (b *Builder) checkI(regs ...int) {
	for _, r := range regs {
		if r < 0 || r >= NumIntRegs {
			b.errs = append(b.errs, fmt.Errorf("vm: int register %d out of range", r))
		}
	}
}

func (b *Builder) emit(in Instr) {
	b.code = append(b.code, in)
}

// --- float arithmetic ---

func (b *Builder) fOp3(op Opcode, dst, a, bb int) {
	b.checkF(dst, a, bb)
	b.emit(Instr{Op: op, Dst: uint16(dst), A: uint16(a), B: uint16(bb)})
}

func (b *Builder) fOp2(op Opcode, dst, a int) {
	b.checkF(dst, a)
	b.emit(Instr{Op: op, Dst: uint16(dst), A: uint16(a)})
}

// FAdd emits f[dst] = f[a] + f[c].
func (b *Builder) FAdd(dst, a, c int) { b.fOp3(FADD, dst, a, c) }

// FSub emits f[dst] = f[a] - f[c].
func (b *Builder) FSub(dst, a, c int) { b.fOp3(FSUB, dst, a, c) }

// FMul emits f[dst] = f[a] * f[c].
func (b *Builder) FMul(dst, a, c int) { b.fOp3(FMUL, dst, a, c) }

// FDiv emits f[dst] = f[a] / f[c].
func (b *Builder) FDiv(dst, a, c int) { b.fOp3(FDIV, dst, a, c) }

// FMA emits f[dst] = f[a]*f[bb] + f[c].
func (b *Builder) FMA(dst, a, bb, c int) {
	b.checkF(dst, a, bb, c)
	b.emit(Instr{Op: FMA, Dst: uint16(dst), A: uint16(a), B: uint16(bb), C: uint16(c)})
}

// FMin emits f[dst] = min(f[a], f[c]).
func (b *Builder) FMin(dst, a, c int) { b.fOp3(FMIN, dst, a, c) }

// FMax emits f[dst] = max(f[a], f[c]).
func (b *Builder) FMax(dst, a, c int) { b.fOp3(FMAX, dst, a, c) }

// FAbs emits f[dst] = |f[a]|.
func (b *Builder) FAbs(dst, a int) { b.fOp2(FABS, dst, a) }

// FNeg emits f[dst] = -f[a].
func (b *Builder) FNeg(dst, a int) { b.fOp2(FNEG, dst, a) }

// FSqrt emits f[dst] = sqrt(f[a]).
func (b *Builder) FSqrt(dst, a int) { b.fOp2(FSQRT, dst, a) }

// FExp emits f[dst] = exp(f[a]).
func (b *Builder) FExp(dst, a int) { b.fOp2(FEXP, dst, a) }

// FTanh emits f[dst] = tanh(f[a]).
func (b *Builder) FTanh(dst, a int) { b.fOp2(FTANH, dst, a) }

// FMov emits f[dst] = f[a].
func (b *Builder) FMov(dst, a int) { b.fOp2(FMOV, dst, a) }

// FMovI emits f[dst] = imm.
func (b *Builder) FMovI(dst int, imm float64) {
	b.checkF(dst)
	b.emit(Instr{Op: FMOVI, Dst: uint16(dst), Imm: imm})
}

// FSel emits f[dst] = r[cond] != 0 ? f[a] : f[c].
func (b *Builder) FSel(dst, a, c, cond int) {
	b.checkF(dst, a, c)
	b.checkI(cond)
	b.emit(Instr{Op: FSEL, Dst: uint16(dst), A: uint16(a), B: uint16(c), C: uint16(cond)})
}

// IToF emits f[dst] = float64(r[a]).
func (b *Builder) IToF(dst, a int) {
	b.checkF(dst)
	b.checkI(a)
	b.emit(Instr{Op: ITOF, Dst: uint16(dst), A: uint16(a)})
}

// --- integer arithmetic ---

func (b *Builder) iOp3(op Opcode, dst, a, bb int) {
	b.checkI(dst, a, bb)
	b.emit(Instr{Op: op, Dst: uint16(dst), A: uint16(a), B: uint16(bb)})
}

// IAdd emits r[dst] = r[a] + r[c].
func (b *Builder) IAdd(dst, a, c int) { b.iOp3(IADD, dst, a, c) }

// ISub emits r[dst] = r[a] - r[c].
func (b *Builder) ISub(dst, a, c int) { b.iOp3(ISUB, dst, a, c) }

// IMul emits r[dst] = r[a] * r[c].
func (b *Builder) IMul(dst, a, c int) { b.iOp3(IMUL, dst, a, c) }

// IAnd emits r[dst] = r[a] & r[c].
func (b *Builder) IAnd(dst, a, c int) { b.iOp3(IAND, dst, a, c) }

// IOr emits r[dst] = r[a] | r[c].
func (b *Builder) IOr(dst, a, c int) { b.iOp3(IOR, dst, a, c) }

// IXor emits r[dst] = r[a] ^ r[c].
func (b *Builder) IXor(dst, a, c int) { b.iOp3(IXOR, dst, a, c) }

// IShl emits r[dst] = r[a] << r[c].
func (b *Builder) IShl(dst, a, c int) { b.iOp3(ISHL, dst, a, c) }

// IShr emits r[dst] = r[a] >> r[c].
func (b *Builder) IShr(dst, a, c int) { b.iOp3(ISHR, dst, a, c) }

// IMov emits r[dst] = r[a].
func (b *Builder) IMov(dst, a int) {
	b.checkI(dst, a)
	b.emit(Instr{Op: IMOV, Dst: uint16(dst), A: uint16(a)})
}

// IMovI emits r[dst] = imm.
func (b *Builder) IMovI(dst int, imm int64) {
	b.checkI(dst)
	b.emit(Instr{Op: IMOVI, Dst: uint16(dst), IImm: imm})
}

// IAddI emits r[dst] = r[a] + imm.
func (b *Builder) IAddI(dst, a int, imm int64) {
	b.checkI(dst, a)
	b.emit(Instr{Op: IADDI, Dst: uint16(dst), A: uint16(a), IImm: imm})
}

// FToI emits r[dst] = int64(f[a]).
func (b *Builder) FToI(dst, a int) {
	b.checkI(dst)
	b.checkF(a)
	b.emit(Instr{Op: FTOI, Dst: uint16(dst), A: uint16(a)})
}

// --- comparisons ---

// ICmpLt emits r[dst] = r[a] < r[c].
func (b *Builder) ICmpLt(dst, a, c int) { b.iOp3(ICMPLT, dst, a, c) }

// ICmpEq emits r[dst] = r[a] == r[c].
func (b *Builder) ICmpEq(dst, a, c int) { b.iOp3(ICMPEQ, dst, a, c) }

// FCmpLt emits r[dst] = f[a] < f[c].
func (b *Builder) FCmpLt(dst, a, c int) {
	b.checkI(dst)
	b.checkF(a, c)
	b.emit(Instr{Op: FCMPLT, Dst: uint16(dst), A: uint16(a), B: uint16(c)})
}

// FCmpLe emits r[dst] = f[a] <= f[c].
func (b *Builder) FCmpLe(dst, a, c int) {
	b.checkI(dst)
	b.checkF(a, c)
	b.emit(Instr{Op: FCMPLE, Dst: uint16(dst), A: uint16(a), B: uint16(c)})
}

// --- memory ---

// Ld emits f[dst] = mem[r[addr] + off].
func (b *Builder) Ld(dst, addr int, off int64) {
	b.checkF(dst)
	b.checkI(addr)
	b.emit(Instr{Op: LD, Dst: uint16(dst), A: uint16(addr), IImm: off})
}

// St emits mem[r[addr] + off] = f[src].
func (b *Builder) St(addr int, off int64, src int) {
	b.checkI(addr)
	b.checkF(src)
	b.emit(Instr{Op: ST, A: uint16(addr), B: uint16(src), IImm: off})
}

// --- control flow ---

// Jmp emits an unconditional jump to the label.
func (b *Builder) Jmp(l Label) {
	b.patches = append(b.patches, patch{len(b.code), l})
	b.emit(Instr{Op: JMP})
}

// Beqz emits a branch to the label if r[a] == 0.
func (b *Builder) Beqz(a int, l Label) {
	b.checkI(a)
	b.patches = append(b.patches, patch{len(b.code), l})
	b.emit(Instr{Op: BEQZ, A: uint16(a)})
}

// Bnez emits a branch to the label if r[a] != 0.
func (b *Builder) Bnez(a int, l Label) {
	b.checkI(a)
	b.patches = append(b.patches, patch{len(b.code), l})
	b.emit(Instr{Op: BNEZ, A: uint16(a)})
}

// Halt emits program termination.
func (b *Builder) Halt() { b.emit(Instr{Op: HALT}) }

// Build resolves labels and returns the program, or the first
// construction error.
func (b *Builder) Build() (*Program, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	for _, p := range b.patches {
		t := b.targets[p.label]
		if t < 0 {
			return nil, fmt.Errorf("vm: program %q: unbound label %d", b.name, p.label)
		}
		b.code[p.instr].IImm = int64(t)
	}
	p := &Program{Name: b.name, Code: b.code, haltTail: haltTail(b.code)}
	fuse(p)
	return p, nil
}

// MustBuild is Build but panics on error; program construction errors are
// programming bugs in static agent definitions.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
