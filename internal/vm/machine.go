package vm

import (
	"fmt"
	"math"
)

// Register-file sizes. Compile-time arrays keep the interpreter's inner
// loop allocation-free.
const (
	NumFloatRegs = 64
	NumIntRegs   = 32
)

// Device distinguishes the two compute-element classes the paper injects
// into.
type Device uint8

// Device classes.
const (
	CPU Device = iota
	GPU
)

// String returns "CPU" or "GPU".
func (d Device) String() string {
	if d == GPU {
		return "GPU"
	}
	return "CPU"
}

// TrapKind classifies abnormal termination of a program run. Traps model
// the detectable uncorrectable errors (DUEs) of the paper: crashes
// (segfault/illegal instruction analogues) and hangs.
type TrapKind uint8

// Trap kinds.
const (
	TrapNone       TrapKind = iota
	TrapOOB                 // memory access outside data memory (segfault)
	TrapInvalidPC           // control transfer outside the program (crash)
	TrapStepBudget          // exceeded the per-run step budget (hang)
	TrapBadInstr            // undefined opcode (illegal instruction)
)

func (k TrapKind) String() string {
	switch k {
	case TrapOOB:
		return "segfault"
	case TrapInvalidPC:
		return "invalid-pc"
	case TrapStepBudget:
		return "hang"
	case TrapBadInstr:
		return "illegal-instruction"
	default:
		return "none"
	}
}

// Trap is returned by Machine.Run on abnormal termination.
type Trap struct {
	Kind    TrapKind
	Device  Device
	Program string
	PC      int
}

// Error implements the error interface.
func (t *Trap) Error() string {
	return fmt.Sprintf("vm: %s trap on %s in %q at pc=%d", t.Kind, t.Device, t.Program, t.PC)
}

// WriteEvent describes one writeback, passed to the fault hook before the
// value is committed. DynIndex is the device's cumulative dynamic
// instruction index (across all Run calls of this machine), which is how
// transient-fault plans address their single target instruction.
type WriteEvent struct {
	Device   Device
	Op       Opcode
	DynIndex uint64
	Kind     DestKind
	Index    int // register number or memory address
}

// FaultHook inspects a writeback and returns an XOR mask to apply to the
// raw bits of the written value (0 = no corruption). The hook is the
// NVBitFI/PinFI analogue; see internal/fi for the injectors.
//
// Every hook has a scope: per device, the set of writeback opcodes it
// can act on or needs to see (SetScopedHook). The machine offers a hook
// only the writebacks inside its scope, and a hook may narrow its own
// scope while the run is going (NarrowHook). The contract that makes
// this exact: outside its scope a hook returns 0 and has no side
// effect, so skipping the call changes nothing.
type FaultHook func(ev WriteEvent) uint64

// deviceState is the per-device register file and instruction counter.
type deviceState struct {
	f     [NumFloatRegs]float64
	r     [NumIntRegs]int64
	count uint64 // cumulative dynamic instruction count
	// lastWB is the DynIndex of the last writeback when wbKnown; both
	// are set at every Run exit (noteExit), never inside the loops.
	lastWB  uint64
	wbKnown bool
}

// noteExit records what a finished run on this device fixes about its
// last writeback: a clean HALT of a program with a known halt tail pins
// it exactly; a trap, or a program of any other shape, leaves it
// unknown.
func (ds *deviceState) noteExit(p *Program, err error) {
	ds.wbKnown = err == nil && p.haltTail > 0
	if ds.wbKnown {
		ds.lastWB = ds.count - p.haltTail
	}
}

// Machine is one agent's compute fabric: a CPU-class and a GPU-class
// device sharing one data memory (the agent's address space). A Machine
// is private to an agent — DiverseAV's agent-independence assumption is
// that a fault confined to one machine cannot touch the other agent.
type Machine struct {
	mem  []float64
	dev  [2]deviceState
	hook FaultHook
	// scope is the hook's per-device writeback-opcode scope, always a
	// subset of WritebackOps; all zero when no hook is installed.
	scope [2]OpMask
	// tier0Only pins execution to the scalar loop even when a program
	// has a tier-1 fusion plan; see SetMaxTier.
	tier0Only bool
	// Execution-tier accounting, flushed at every Run/runDirect exit.
	// These are observational totals for the machine's lifetime: unlike
	// dev[_].count they are not part of the architectural state, so
	// MachineState.Restore leaves them alone and forked runs keep
	// accumulating.
	fusedInstr   uint64 // executed inside tier-1 fused kernels (either loop)
	scalarInstr  uint64 // executed by the hook-free scalar loop
	hookedInstr  uint64 // executed per instruction by the hooked loop
	batchedInstr uint64 // executed in lockstep by RunLanes (see batch.go)
}

// NewMachine allocates a machine with the given data-memory size in
// 64-bit words.
func NewMachine(memWords int) *Machine {
	return &Machine{mem: make([]float64, memWords)}
}

// SetFaultHook installs (or clears, with nil) a fault hook that sees
// every writeback on both devices: SetScopedHook with the full scope.
func (m *Machine) SetFaultHook(h FaultHook) {
	m.SetScopedHook(h, [2]OpMask{WritebackOps, WritebackOps})
}

// SetScopedHook installs (or clears, with nil) a fault hook offered only
// the writebacks whose opcode is in scope[device]. Opcodes that write
// nothing are dropped from the scope: they never reach a hook. A device
// whose scope is empty runs exactly as if no hook were installed —
// tier-1 kernels included — and inside the hooked loop a kernel
// dispatches whenever none of the opcodes it writes is in scope.
func (m *Machine) SetScopedHook(h FaultHook, scope [2]OpMask) {
	m.hook = h
	m.scope = [2]OpMask{}
	if h != nil {
		m.scope = [2]OpMask{scope[CPU] & WritebackOps, scope[GPU] & WritebackOps}
	}
}

// NarrowHook drops ops from the hook's scope on device d. Hooks call it
// from inside a run once they can no longer act on those opcodes (an
// injector that fired, a profiler that has seen an opcode); the machine
// takes the faster path from the next instruction on.
func (m *Machine) NarrowHook(d Device, ops OpMask) { m.scope[d] &^= ops }

// HookScope returns the hook's current scope on device d (empty when no
// hook is installed).
func (m *Machine) HookScope(d Device) OpMask { return m.scope[d] }

// SetMaxTier caps the execution tier: 0 pins the machine to the scalar
// per-instruction loop, ≥ 1 (the default) also allows fused
// superinstruction kernels on hook-free runs. Both tiers are
// bit-identical by construction (see fuse.go); the cap exists for
// differential tests and for ruling tier 1 out when debugging.
func (m *Machine) SetMaxTier(t int) { m.tier0Only = t < 1 }

// MaxTier returns the current execution-tier cap.
func (m *Machine) MaxTier() int {
	if m.tier0Only {
		return 0
	}
	return 1
}

// MemSize returns the data-memory size in words.
func (m *Machine) MemSize() int { return len(m.mem) }

// Mem returns the backing memory. The simulator host uses it to marshal
// sensor data in and actuation data out; it is shared, not copied.
func (m *Machine) Mem() []float64 { return m.mem }

// InstrCount returns the cumulative dynamic instruction count executed on
// the device so far.
func (m *Machine) InstrCount(d Device) uint64 { return m.dev[d].count }

// ResetCounts zeroes the dynamic instruction counters (used between
// profiling and measured runs).
func (m *Machine) ResetCounts() {
	for d := range m.dev {
		m.dev[d].count = 0
		m.dev[d].lastWB, m.dev[d].wbKnown = 0, false
	}
}

// LastWriteback returns the DynIndex of the last writeback executed on
// device d, with ok reporting whether the machine's state fixes it
// exactly: the device has never run (0), or its last run halted
// cleanly in a program whose every HALT directly follows a writeback.
// A trapped run, another program shape, or a Restore leaves it unknown.
// It costs nothing per instruction, which is what lets a profiling
// hook narrow its scope to nothing and still report the stream length.
func (m *Machine) LastWriteback(d Device) (dyn uint64, ok bool) {
	ds := &m.dev[d]
	if ds.count == 0 {
		return 0, true
	}
	return ds.lastWB, ds.wbKnown
}

// TierCounts returns how many dynamic instructions this machine has
// executed on each path: inside tier-1 fused kernels (dispatched from
// either loop), in the hook-free tier-0 scalar loop, per instruction in
// the hooked fault-injection loop, and in the multi-lane lockstep batch
// loop (RunLanes). The sum equals every
// instruction ever run (checkpoint restores do not reset these), which
// is what the flight-recorder summary reports as the tier-1 kernel hit
// rate.
func (m *Machine) TierCounts() (fused, scalar, hooked, batched uint64) {
	return m.fusedInstr, m.scalarInstr, m.hookedInstr, m.batchedInstr
}

// Float returns float register i of the device (for tests).
func (m *Machine) Float(d Device, i int) float64 { return m.dev[d].f[i] }

// Int returns int register i of the device (for tests).
func (m *Machine) Int(d Device, i int) int64 { return m.dev[d].r[i] }

// Run executes the program on the given device until HALT, a trap, or the
// step budget is exhausted. Register state and memory persist across
// calls; the program counter starts at the program entry every call.
//
// A device with an empty hook scope (no hook at all in golden, training,
// and benchmark runs — the vast majority of all executed instructions —
// or a hook that does not watch this device) dispatches to a
// specialized loop whose writebacks commit directly to the register
// file, skipping the per-writeback hook plumbing; see runDirect. Both
// loops execute identical semantics.
func (m *Machine) Run(d Device, p *Program, stepBudget uint64) error {
	err := m.resume(d, p, p.entry, 0, stepBudget)
	m.dev[d].noteExit(p, err)
	return err
}

// resume continues execution of p at an arbitrary pc with `start`
// steps of this invocation's budget already spent — the scalar landing
// path for a lane that detached from a RunLanes lockstep pack, and the
// body of Run. Either loop gets tier-1 kernels wherever the pc lands on
// a kernel entry the hook scope allows.
func (m *Machine) resume(d Device, p *Program, pc int, start, stepBudget uint64) error {
	if m.scope[d] == 0 {
		return m.runDirect(d, p, pc, start, stepBudget)
	}
	return m.runHooked(d, p, pc, start, stepBudget)
}

// runHooked is the per-writeback fault-injection loop: every commit
// whose opcode is in the hook's scope is offered to the hook before
// landing; the rest commit directly. pc is the starting program
// counter (p.entry for Run, a resume point for detached batch lanes)
// and start is how many of this invocation's budgeted steps were
// already executed elsewhere (always 0 for Run).
//
// A kernel entry dispatches to its fused kernel when none of the
// opcodes the kernel writes is in scope: the hook would have been
// offered none of its writebacks. Once the scope on d is empty the
// rest of the invocation continues on runDirect.
func (m *Machine) runHooked(d Device, p *Program, pc int, start, stepBudget uint64) error {
	ds := &m.dev[d]
	code := p.Code
	var kmap []int32
	var kernels []fusedKernel
	if p.plan != nil && !m.tier0Only {
		kmap = p.plan.pcMap
		kernels = p.plan.kernels
	}
	steps := start
	var fused uint64
	var err error
loop:
	for {
		if pc < 0 || pc >= len(code) {
			err = &Trap{Kind: TrapInvalidPC, Device: d, Program: p.Name, PC: pc}
			break
		}
		if steps >= stepBudget {
			err = &Trap{Kind: TrapStepBudget, Device: d, Program: p.Name, PC: pc}
			break
		}
		scope := m.scope[d]
		if scope == 0 {
			m.fusedInstr += fused
			m.hookedInstr += steps - start - fused
			return m.runDirect(d, p, pc, steps, stepBudget)
		}
		if kmap != nil {
			if ki := kmap[pc]; ki >= 0 && kernels[ki].writes&scope == 0 {
				if n, npc := kernels[ki].fn(m, ds, stepBudget-steps); n > 0 {
					steps += n
					fused += n
					ds.count += n
					pc = npc
					continue
				}
			}
		}
		steps++
		ds.count++
		in := &code[pc]
		pc++
		switch in.Op {
		case FADD:
			m.writeF(ds, d, in, ds.f[in.A]+ds.f[in.B])
		case FSUB:
			m.writeF(ds, d, in, ds.f[in.A]-ds.f[in.B])
		case FMUL:
			m.writeF(ds, d, in, ds.f[in.A]*ds.f[in.B])
		case FDIV:
			m.writeF(ds, d, in, ds.f[in.A]/ds.f[in.B])
		case FMA:
			m.writeF(ds, d, in, ds.f[in.A]*ds.f[in.B]+ds.f[in.C])
		case FMIN:
			m.writeF(ds, d, in, math.Min(ds.f[in.A], ds.f[in.B]))
		case FMAX:
			m.writeF(ds, d, in, math.Max(ds.f[in.A], ds.f[in.B]))
		case FABS:
			m.writeF(ds, d, in, math.Abs(ds.f[in.A]))
		case FNEG:
			m.writeF(ds, d, in, -ds.f[in.A])
		case FSQRT:
			m.writeF(ds, d, in, math.Sqrt(ds.f[in.A]))
		case FEXP:
			m.writeF(ds, d, in, math.Exp(ds.f[in.A]))
		case FTANH:
			m.writeF(ds, d, in, math.Tanh(ds.f[in.A]))
		case FMOV:
			m.writeF(ds, d, in, ds.f[in.A])
		case FMOVI:
			m.writeF(ds, d, in, in.Imm)
		case FSEL:
			if ds.r[in.C] != 0 {
				m.writeF(ds, d, in, ds.f[in.A])
			} else {
				m.writeF(ds, d, in, ds.f[in.B])
			}
		case ITOF:
			m.writeF(ds, d, in, float64(ds.r[in.A]))
		case IADD:
			m.writeI(ds, d, in, ds.r[in.A]+ds.r[in.B])
		case ISUB:
			m.writeI(ds, d, in, ds.r[in.A]-ds.r[in.B])
		case IMUL:
			m.writeI(ds, d, in, ds.r[in.A]*ds.r[in.B])
		case IAND:
			m.writeI(ds, d, in, ds.r[in.A]&ds.r[in.B])
		case IOR:
			m.writeI(ds, d, in, ds.r[in.A]|ds.r[in.B])
		case IXOR:
			m.writeI(ds, d, in, ds.r[in.A]^ds.r[in.B])
		case ISHL:
			m.writeI(ds, d, in, ds.r[in.A]<<(uint64(ds.r[in.B])&63))
		case ISHR:
			m.writeI(ds, d, in, ds.r[in.A]>>(uint64(ds.r[in.B])&63))
		case IMOV:
			m.writeI(ds, d, in, ds.r[in.A])
		case IMOVI:
			m.writeI(ds, d, in, in.IImm)
		case IADDI:
			m.writeI(ds, d, in, ds.r[in.A]+in.IImm)
		case FTOI:
			m.writeI(ds, d, in, saturateToInt(ds.f[in.A]))
		case ICMPLT:
			m.writeI(ds, d, in, boolToInt(ds.r[in.A] < ds.r[in.B]))
		case ICMPEQ:
			m.writeI(ds, d, in, boolToInt(ds.r[in.A] == ds.r[in.B]))
		case FCMPLT:
			m.writeI(ds, d, in, boolToInt(ds.f[in.A] < ds.f[in.B]))
		case FCMPLE:
			m.writeI(ds, d, in, boolToInt(ds.f[in.A] <= ds.f[in.B]))
		case LD:
			addr := ds.r[in.A] + in.IImm
			if addr < 0 || addr >= int64(len(m.mem)) {
				err = &Trap{Kind: TrapOOB, Device: d, Program: p.Name, PC: pc - 1}
				break loop
			}
			m.writeF(ds, d, in, m.mem[addr])
		case ST:
			addr := ds.r[in.A] + in.IImm
			if addr < 0 || addr >= int64(len(m.mem)) {
				err = &Trap{Kind: TrapOOB, Device: d, Program: p.Name, PC: pc - 1}
				break loop
			}
			v := ds.f[in.B]
			if scope.Has(ST) {
				if mask := m.hook(WriteEvent{Device: d, Op: ST, DynIndex: ds.count, Kind: DestMem, Index: int(addr)}); mask != 0 {
					v = math.Float64frombits(math.Float64bits(v) ^ mask)
				}
			}
			m.mem[addr] = v
		case JMP:
			pc = int(in.IImm)
		case BEQZ:
			if ds.r[in.A] == 0 {
				pc = int(in.IImm)
			}
		case BNEZ:
			if ds.r[in.A] != 0 {
				pc = int(in.IImm)
			}
		case HALT:
			break loop
		default:
			err = &Trap{Kind: TrapBadInstr, Device: d, Program: p.Name, PC: pc - 1}
			break loop
		}
	}
	m.fusedInstr += fused
	m.hookedInstr += steps - start - fused
	return err
}

// runDirect is Run for a device with an empty hook scope: the same fetch /
// decode / trap semantics, with writebacks committed straight into the
// register file. Keep the two loops in lockstep when changing the ISA
// (TestFuzzDirectVsHooked enforces this differentially).
//
// When the program carries a tier-1 fusion plan and the machine allows
// it, pcs that are kernel entries dispatch to the fused kernel, which
// executes whole loop iterations at once and advances steps by the
// exact count the scalar loop would have; a kernel that cannot make
// progress (trap ahead, budget too tight) returns 0 and the scalar
// switch handles that pass. See fuse.go for the bit-exactness rules.
func (m *Machine) runDirect(d Device, p *Program, pc int, start, stepBudget uint64) error {
	ds := &m.dev[d]
	code := p.Code
	mem := m.mem
	var kmap []int32
	var kernels []fusedKernel
	if p.plan != nil && !m.tier0Only {
		kmap = p.plan.pcMap
		kernels = p.plan.kernels
	}
	steps := start
	var fused uint64
	for {
		if pc < 0 || pc >= len(code) {
			ds.count += steps - start
			m.fusedInstr += fused
			m.scalarInstr += steps - start - fused
			return &Trap{Kind: TrapInvalidPC, Device: d, Program: p.Name, PC: pc}
		}
		if steps >= stepBudget {
			ds.count += steps - start
			m.fusedInstr += fused
			m.scalarInstr += steps - start - fused
			return &Trap{Kind: TrapStepBudget, Device: d, Program: p.Name, PC: pc}
		}
		if kmap != nil {
			if ki := kmap[pc]; ki >= 0 {
				if n, npc := kernels[ki].fn(m, ds, stepBudget-steps); n > 0 {
					steps += n
					fused += n
					pc = npc
					continue
				}
			}
		}
		steps++
		in := &code[pc]
		pc++
		switch in.Op {
		case FADD:
			ds.f[in.Dst] = ds.f[in.A] + ds.f[in.B]
		case FSUB:
			ds.f[in.Dst] = ds.f[in.A] - ds.f[in.B]
		case FMUL:
			ds.f[in.Dst] = ds.f[in.A] * ds.f[in.B]
		case FDIV:
			ds.f[in.Dst] = ds.f[in.A] / ds.f[in.B]
		case FMA:
			ds.f[in.Dst] = ds.f[in.A]*ds.f[in.B] + ds.f[in.C]
		case FMIN:
			ds.f[in.Dst] = math.Min(ds.f[in.A], ds.f[in.B])
		case FMAX:
			ds.f[in.Dst] = math.Max(ds.f[in.A], ds.f[in.B])
		case FABS:
			ds.f[in.Dst] = math.Abs(ds.f[in.A])
		case FNEG:
			ds.f[in.Dst] = -ds.f[in.A]
		case FSQRT:
			ds.f[in.Dst] = math.Sqrt(ds.f[in.A])
		case FEXP:
			ds.f[in.Dst] = math.Exp(ds.f[in.A])
		case FTANH:
			ds.f[in.Dst] = math.Tanh(ds.f[in.A])
		case FMOV:
			ds.f[in.Dst] = ds.f[in.A]
		case FMOVI:
			ds.f[in.Dst] = in.Imm
		case FSEL:
			if ds.r[in.C] != 0 {
				ds.f[in.Dst] = ds.f[in.A]
			} else {
				ds.f[in.Dst] = ds.f[in.B]
			}
		case ITOF:
			ds.f[in.Dst] = float64(ds.r[in.A])
		case IADD:
			ds.r[in.Dst] = ds.r[in.A] + ds.r[in.B]
		case ISUB:
			ds.r[in.Dst] = ds.r[in.A] - ds.r[in.B]
		case IMUL:
			ds.r[in.Dst] = ds.r[in.A] * ds.r[in.B]
		case IAND:
			ds.r[in.Dst] = ds.r[in.A] & ds.r[in.B]
		case IOR:
			ds.r[in.Dst] = ds.r[in.A] | ds.r[in.B]
		case IXOR:
			ds.r[in.Dst] = ds.r[in.A] ^ ds.r[in.B]
		case ISHL:
			ds.r[in.Dst] = ds.r[in.A] << (uint64(ds.r[in.B]) & 63)
		case ISHR:
			ds.r[in.Dst] = ds.r[in.A] >> (uint64(ds.r[in.B]) & 63)
		case IMOV:
			ds.r[in.Dst] = ds.r[in.A]
		case IMOVI:
			ds.r[in.Dst] = in.IImm
		case IADDI:
			ds.r[in.Dst] = ds.r[in.A] + in.IImm
		case FTOI:
			ds.r[in.Dst] = saturateToInt(ds.f[in.A])
		case ICMPLT:
			ds.r[in.Dst] = boolToInt(ds.r[in.A] < ds.r[in.B])
		case ICMPEQ:
			ds.r[in.Dst] = boolToInt(ds.r[in.A] == ds.r[in.B])
		case FCMPLT:
			ds.r[in.Dst] = boolToInt(ds.f[in.A] < ds.f[in.B])
		case FCMPLE:
			ds.r[in.Dst] = boolToInt(ds.f[in.A] <= ds.f[in.B])
		case LD:
			addr := ds.r[in.A] + in.IImm
			if addr < 0 || addr >= int64(len(mem)) {
				ds.count += steps - start
				m.fusedInstr += fused
				m.scalarInstr += steps - start - fused
				return &Trap{Kind: TrapOOB, Device: d, Program: p.Name, PC: pc - 1}
			}
			ds.f[in.Dst] = mem[addr]
		case ST:
			addr := ds.r[in.A] + in.IImm
			if addr < 0 || addr >= int64(len(mem)) {
				ds.count += steps - start
				m.fusedInstr += fused
				m.scalarInstr += steps - start - fused
				return &Trap{Kind: TrapOOB, Device: d, Program: p.Name, PC: pc - 1}
			}
			mem[addr] = ds.f[in.B]
		case JMP:
			pc = int(in.IImm)
		case BEQZ:
			if ds.r[in.A] == 0 {
				pc = int(in.IImm)
			}
		case BNEZ:
			if ds.r[in.A] != 0 {
				pc = int(in.IImm)
			}
		case HALT:
			ds.count += steps - start
			m.fusedInstr += fused
			m.scalarInstr += steps - start - fused
			return nil
		default:
			ds.count += steps - start
			m.fusedInstr += fused
			m.scalarInstr += steps - start - fused
			return &Trap{Kind: TrapBadInstr, Device: d, Program: p.Name, PC: pc - 1}
		}
	}
}

// writeF commits a float-register writeback, offering it to the fault
// hook when the opcode is in scope.
func (m *Machine) writeF(ds *deviceState, d Device, in *Instr, v float64) {
	if m.scope[d].Has(in.Op) {
		if mask := m.hook(WriteEvent{Device: d, Op: in.Op, DynIndex: ds.count, Kind: DestFloat, Index: int(in.Dst)}); mask != 0 {
			v = math.Float64frombits(math.Float64bits(v) ^ mask)
		}
	}
	ds.f[in.Dst] = v
}

// writeI commits an int-register writeback, offering it to the fault
// hook when the opcode is in scope.
func (m *Machine) writeI(ds *deviceState, d Device, in *Instr, v int64) {
	if m.scope[d].Has(in.Op) {
		if mask := m.hook(WriteEvent{Device: d, Op: in.Op, DynIndex: ds.count, Kind: DestInt, Index: int(in.Dst)}); mask != 0 {
			v ^= int64(mask)
		}
	}
	ds.r[in.Dst] = v
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// saturateToInt converts a float to int64, saturating on NaN/overflow the
// way real hardware conversion instructions do rather than invoking
// undefined behavior.
func saturateToInt(f float64) int64 {
	switch {
	case math.IsNaN(f):
		return 0
	case f >= math.MaxInt64:
		return math.MaxInt64
	case f <= math.MinInt64:
		return math.MinInt64
	default:
		return int64(f)
	}
}
