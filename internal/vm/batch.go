package vm

import (
	"fmt"
	"math"
	"sync"
)

// MaxLanes is the widest lockstep pack RunLanes accepts. Sized so one
// batchState (the SoA register block below) stays around 12 KiB —
// comfortably cache-resident next to the lanes' shared instruction
// stream.
const MaxLanes = 16

// batchState is the structure-of-arrays register block for one lockstep
// pack: register i of lane k lives at f[i][k], so the per-instruction
// lane loop walks one contiguous row per operand instead of striding
// across whole Machines. Memory is not copied into lanes — each lane
// keeps writing through to its own Machine's memory, which is what
// makes detaching a lane mid-run cheap (registers + count scatter,
// nothing else moves).
type batchState struct {
	f     [NumFloatRegs][MaxLanes]float64
	r     [NumIntRegs][MaxLanes]int64
	count [MaxLanes]uint64
	mem   [MaxLanes][]float64
	hook  [MaxLanes]FaultHook
	// scope points at each lane Machine's live hook scope for the pack's
	// device, so a hook narrowing itself mid-pack takes effect at once.
	scope [MaxLanes]*OpMask
	live  [MaxLanes]bool
}

var batchPool = sync.Pool{New: func() any { return new(batchState) }}

// gather loads lane k's register file, dynamic-instruction counter,
// memory, fault hook and hook scope out of its Machine.
func (b *batchState) gather(k int, m *Machine, d Device) {
	ds := &m.dev[d]
	for i := range ds.f {
		b.f[i][k] = ds.f[i]
	}
	for i := range ds.r {
		b.r[i][k] = ds.r[i]
	}
	b.count[k] = ds.count
	b.mem[k] = m.mem
	b.hook[k] = m.hook
	b.scope[k] = &m.scope[d]
	b.live[k] = true
}

// detach scatters lane k's lockstep state back into its Machine and
// credits the instructions it executed inside the pack to the batched
// tier. After detach the Machine is exactly where a solo run would be
// `steps` instructions into this invocation.
func (b *batchState) detach(k int, m *Machine, d Device, steps uint64) {
	ds := &m.dev[d]
	for i := range ds.f {
		ds.f[i] = b.f[i][k]
	}
	for i := range ds.r {
		ds.r[i] = b.r[i][k]
	}
	ds.count = b.count[k]
	m.batchedInstr += steps
}

// release drops the per-lane borrows so the pool does not pin lane
// memory between packs.
func (b *batchState) release() {
	for k := range b.mem {
		b.mem[k] = nil
		b.hook[k] = nil
		b.scope[k] = nil
		b.live[k] = false
	}
	batchPool.Put(b)
}

// writeF commits a float-register writeback for lane k, offering it to
// that lane's fault hook when in scope — the lockstep twin of
// Machine.writeF.
func (b *batchState) writeF(k int, d Device, in *Instr, v float64) {
	if b.scope[k].Has(in.Op) {
		if mask := b.hook[k](WriteEvent{Device: d, Op: in.Op, DynIndex: b.count[k], Kind: DestFloat, Index: int(in.Dst)}); mask != 0 {
			v = math.Float64frombits(math.Float64bits(v) ^ mask)
		}
	}
	b.f[in.Dst][k] = v
}

// writeI commits an int-register writeback for lane k, offering it to
// that lane's fault hook when in scope — the lockstep twin of
// Machine.writeI.
func (b *batchState) writeI(k int, d Device, in *Instr, v int64) {
	if b.scope[k].Has(in.Op) {
		if mask := b.hook[k](WriteEvent{Device: d, Op: in.Op, DynIndex: b.count[k], Kind: DestInt, Index: int(in.Dst)}); mask != 0 {
			v ^= int64(mask)
		}
	}
	b.r[in.Dst][k] = v
}

// RunLanes executes p on device d across all machines in lockstep: one
// fetch/decode per instruction is amortized over every live lane, SIMT
// over campaign runs. Each lane carries its own register file, dynamic
// instruction counter, memory and fault hook, so lanes may hold
// divergent *data* (that is the point — forked injection runs differ in
// one corrupted value) while sharing *control flow*.
//
// A lane leaves the pack ("detaches") when its control flow diverges
// from the first live lane's at a conditional branch, or when it alone
// traps (an out-of-bounds access on its corrupted address). A detached
// lane immediately finishes this invocation solo via the scalar loops
// (Machine.resume) — tier-1 kernels included where its hook scope
// allows — and rejoins lockstep at the next RunLanes call, where
// control provably realigns at the program entry. Uniform events (HALT, invalid pc,
// step budget, undefined opcode) end every live lane identically.
//
// Per-lane semantics are bit-identical to ms[k].Run(d, p, stepBudget):
// same writebacks, same hook event stream (DynIndex per lane), same
// traps, same counts. TestFuzzLanesVsSolo enforces this differentially.
// The returned slice has one entry per lane, nil for a clean HALT.
//
// len(ms) must be in [1, MaxLanes]; a single lane falls through to the
// plain solo path.
func RunLanes(d Device, p *Program, stepBudget uint64, ms []*Machine) []error {
	n := len(ms)
	if n == 0 || n > MaxLanes {
		panic(fmt.Sprintf("vm: RunLanes width %d out of range [1,%d]", n, MaxLanes))
	}
	errs := make([]error, n)
	if n == 1 {
		errs[0] = ms[0].Run(d, p, stepBudget)
		return errs
	}
	b := batchPool.Get().(*batchState)
	for k := 0; k < n; k++ {
		b.gather(k, ms[k], d)
	}
	code := p.Code
	pc := p.entry
	var steps uint64
	nLive := n
	for nLive > 0 {
		if pc < 0 || pc >= len(code) {
			for k := 0; k < n; k++ {
				if b.live[k] {
					b.detach(k, ms[k], d, steps)
					errs[k] = &Trap{Kind: TrapInvalidPC, Device: d, Program: p.Name, PC: pc}
				}
			}
			break
		}
		if steps >= stepBudget {
			for k := 0; k < n; k++ {
				if b.live[k] {
					b.detach(k, ms[k], d, steps)
					errs[k] = &Trap{Kind: TrapStepBudget, Device: d, Program: p.Name, PC: pc}
				}
			}
			break
		}
		steps++
		for k := 0; k < n; k++ {
			if b.live[k] {
				b.count[k]++
			}
		}
		in := &code[pc]
		pc++
		switch in.Op {
		case FADD:
			for k := 0; k < n; k++ {
				if b.live[k] {
					b.writeF(k, d, in, b.f[in.A][k]+b.f[in.B][k])
				}
			}
		case FSUB:
			for k := 0; k < n; k++ {
				if b.live[k] {
					b.writeF(k, d, in, b.f[in.A][k]-b.f[in.B][k])
				}
			}
		case FMUL:
			for k := 0; k < n; k++ {
				if b.live[k] {
					b.writeF(k, d, in, b.f[in.A][k]*b.f[in.B][k])
				}
			}
		case FDIV:
			for k := 0; k < n; k++ {
				if b.live[k] {
					b.writeF(k, d, in, b.f[in.A][k]/b.f[in.B][k])
				}
			}
		case FMA:
			for k := 0; k < n; k++ {
				if b.live[k] {
					b.writeF(k, d, in, b.f[in.A][k]*b.f[in.B][k]+b.f[in.C][k])
				}
			}
		case FMIN:
			for k := 0; k < n; k++ {
				if b.live[k] {
					b.writeF(k, d, in, math.Min(b.f[in.A][k], b.f[in.B][k]))
				}
			}
		case FMAX:
			for k := 0; k < n; k++ {
				if b.live[k] {
					b.writeF(k, d, in, math.Max(b.f[in.A][k], b.f[in.B][k]))
				}
			}
		case FABS:
			for k := 0; k < n; k++ {
				if b.live[k] {
					b.writeF(k, d, in, math.Abs(b.f[in.A][k]))
				}
			}
		case FNEG:
			for k := 0; k < n; k++ {
				if b.live[k] {
					b.writeF(k, d, in, -b.f[in.A][k])
				}
			}
		case FSQRT:
			for k := 0; k < n; k++ {
				if b.live[k] {
					b.writeF(k, d, in, math.Sqrt(b.f[in.A][k]))
				}
			}
		case FEXP:
			for k := 0; k < n; k++ {
				if b.live[k] {
					b.writeF(k, d, in, math.Exp(b.f[in.A][k]))
				}
			}
		case FTANH:
			for k := 0; k < n; k++ {
				if b.live[k] {
					b.writeF(k, d, in, math.Tanh(b.f[in.A][k]))
				}
			}
		case FMOV:
			for k := 0; k < n; k++ {
				if b.live[k] {
					b.writeF(k, d, in, b.f[in.A][k])
				}
			}
		case FMOVI:
			for k := 0; k < n; k++ {
				if b.live[k] {
					b.writeF(k, d, in, in.Imm)
				}
			}
		case FSEL:
			for k := 0; k < n; k++ {
				if b.live[k] {
					if b.r[in.C][k] != 0 {
						b.writeF(k, d, in, b.f[in.A][k])
					} else {
						b.writeF(k, d, in, b.f[in.B][k])
					}
				}
			}
		case ITOF:
			for k := 0; k < n; k++ {
				if b.live[k] {
					b.writeF(k, d, in, float64(b.r[in.A][k]))
				}
			}
		case IADD:
			for k := 0; k < n; k++ {
				if b.live[k] {
					b.writeI(k, d, in, b.r[in.A][k]+b.r[in.B][k])
				}
			}
		case ISUB:
			for k := 0; k < n; k++ {
				if b.live[k] {
					b.writeI(k, d, in, b.r[in.A][k]-b.r[in.B][k])
				}
			}
		case IMUL:
			for k := 0; k < n; k++ {
				if b.live[k] {
					b.writeI(k, d, in, b.r[in.A][k]*b.r[in.B][k])
				}
			}
		case IAND:
			for k := 0; k < n; k++ {
				if b.live[k] {
					b.writeI(k, d, in, b.r[in.A][k]&b.r[in.B][k])
				}
			}
		case IOR:
			for k := 0; k < n; k++ {
				if b.live[k] {
					b.writeI(k, d, in, b.r[in.A][k]|b.r[in.B][k])
				}
			}
		case IXOR:
			for k := 0; k < n; k++ {
				if b.live[k] {
					b.writeI(k, d, in, b.r[in.A][k]^b.r[in.B][k])
				}
			}
		case ISHL:
			for k := 0; k < n; k++ {
				if b.live[k] {
					b.writeI(k, d, in, b.r[in.A][k]<<(uint64(b.r[in.B][k])&63))
				}
			}
		case ISHR:
			for k := 0; k < n; k++ {
				if b.live[k] {
					b.writeI(k, d, in, b.r[in.A][k]>>(uint64(b.r[in.B][k])&63))
				}
			}
		case IMOV:
			for k := 0; k < n; k++ {
				if b.live[k] {
					b.writeI(k, d, in, b.r[in.A][k])
				}
			}
		case IMOVI:
			for k := 0; k < n; k++ {
				if b.live[k] {
					b.writeI(k, d, in, in.IImm)
				}
			}
		case IADDI:
			for k := 0; k < n; k++ {
				if b.live[k] {
					b.writeI(k, d, in, b.r[in.A][k]+in.IImm)
				}
			}
		case FTOI:
			for k := 0; k < n; k++ {
				if b.live[k] {
					b.writeI(k, d, in, saturateToInt(b.f[in.A][k]))
				}
			}
		case ICMPLT:
			for k := 0; k < n; k++ {
				if b.live[k] {
					b.writeI(k, d, in, boolToInt(b.r[in.A][k] < b.r[in.B][k]))
				}
			}
		case ICMPEQ:
			for k := 0; k < n; k++ {
				if b.live[k] {
					b.writeI(k, d, in, boolToInt(b.r[in.A][k] == b.r[in.B][k]))
				}
			}
		case FCMPLT:
			for k := 0; k < n; k++ {
				if b.live[k] {
					b.writeI(k, d, in, boolToInt(b.f[in.A][k] < b.f[in.B][k]))
				}
			}
		case FCMPLE:
			for k := 0; k < n; k++ {
				if b.live[k] {
					b.writeI(k, d, in, boolToInt(b.f[in.A][k] <= b.f[in.B][k]))
				}
			}
		case LD:
			for k := 0; k < n; k++ {
				if !b.live[k] {
					continue
				}
				addr := b.r[in.A][k] + in.IImm
				if addr < 0 || addr >= int64(len(b.mem[k])) {
					b.detach(k, ms[k], d, steps)
					errs[k] = &Trap{Kind: TrapOOB, Device: d, Program: p.Name, PC: pc - 1}
					b.live[k] = false
					nLive--
					continue
				}
				b.writeF(k, d, in, b.mem[k][addr])
			}
		case ST:
			for k := 0; k < n; k++ {
				if !b.live[k] {
					continue
				}
				addr := b.r[in.A][k] + in.IImm
				if addr < 0 || addr >= int64(len(b.mem[k])) {
					b.detach(k, ms[k], d, steps)
					errs[k] = &Trap{Kind: TrapOOB, Device: d, Program: p.Name, PC: pc - 1}
					b.live[k] = false
					nLive--
					continue
				}
				v := b.f[in.B][k]
				if b.scope[k].Has(ST) {
					if mask := b.hook[k](WriteEvent{Device: d, Op: ST, DynIndex: b.count[k], Kind: DestMem, Index: int(addr)}); mask != 0 {
						v = math.Float64frombits(math.Float64bits(v) ^ mask)
					}
				}
				b.mem[k][addr] = v
			}
		case JMP:
			pc = int(in.IImm)
		case BEQZ, BNEZ:
			// Per-lane branch decision. The first live lane leads the
			// pack; a lane that disagrees detaches at its own successor
			// pc and finishes this invocation on the scalar path.
			leader := -1
			var lead bool
			for k := 0; k < n; k++ {
				if !b.live[k] {
					continue
				}
				taken := b.r[in.A][k] == 0
				if in.Op == BNEZ {
					taken = b.r[in.A][k] != 0
				}
				if leader < 0 {
					leader, lead = k, taken
					continue
				}
				if taken != lead {
					lanePC := pc
					if taken {
						lanePC = int(in.IImm)
					}
					b.detach(k, ms[k], d, steps)
					errs[k] = ms[k].resume(d, p, lanePC, steps, stepBudget)
					b.live[k] = false
					nLive--
				}
			}
			if lead {
				pc = int(in.IImm)
			}
		case HALT:
			for k := 0; k < n; k++ {
				if b.live[k] {
					b.detach(k, ms[k], d, steps)
					b.live[k] = false
				}
			}
			nLive = 0
		default:
			for k := 0; k < n; k++ {
				if b.live[k] {
					b.detach(k, ms[k], d, steps)
					errs[k] = &Trap{Kind: TrapBadInstr, Device: d, Program: p.Name, PC: pc - 1}
					b.live[k] = false
				}
			}
			nLive = 0
		}
	}
	b.release()
	for k, m := range ms {
		m.dev[d].noteExit(p, errs[k])
	}
	return errs
}
