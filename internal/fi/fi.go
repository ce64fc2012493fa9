// Package fi implements the fault-injection tooling of the reproduction:
// the analogue of NVBitFI (GPU) and PinFI (CPU) in the paper's §IV-D.
//
// The fault model follows §II-B exactly: a random hardware fault is
// emulated by XOR-ing the destination register of an executing opcode
// with a mask. A transient fault corrupts the destination of exactly one
// dynamic instruction; a permanent fault corrupts the destination of all
// dynamic instances of a selected opcode. Injectors attach to a
// vm.Machine through its writeback hook.
package fi

import (
	"fmt"

	"diverseav/internal/obs"
	"diverseav/internal/rng"
	"diverseav/internal/vm"
)

// Model selects the fault model.
type Model uint8

// Fault models.
const (
	// Transient corrupts the destination of one dynamic instruction.
	Transient Model = iota
	// Permanent corrupts the destination of every dynamic instance of a
	// selected opcode.
	Permanent
)

// String returns "transient" or "permanent".
func (m Model) String() string {
	if m == Permanent {
		return "permanent"
	}
	return "transient"
}

// Plan is one injection experiment's configuration, produced by a
// Planner and executed by an Injector.
type Plan struct {
	Target vm.Device `json:"target"`
	Model  Model     `json:"model"`

	// DynIndex is the 1-based dynamic instruction index to corrupt
	// (transient model only).
	DynIndex uint64 `json:"dyn_index,omitempty"`

	// Opcode is the opcode whose dynamic instances are corrupted
	// (permanent model only).
	Opcode vm.Opcode `json:"opcode,omitempty"`

	// Bit is the bit position XOR-ed into the destination value.
	Bit uint `json:"bit"`
}

// Mask returns the XOR mask for the plan.
func (p Plan) Mask() uint64 { return 1 << (p.Bit & 63) }

// String describes the plan for logs and reports.
func (p Plan) String() string {
	if p.Model == Permanent {
		return fmt.Sprintf("%s-permanent op=%s bit=%d", p.Target, p.Opcode, p.Bit)
	}
	return fmt.Sprintf("%s-transient dyn=%d bit=%d", p.Target, p.DynIndex, p.Bit)
}

// Injector applies a Plan to a machine's writeback stream. It is not
// safe for concurrent use; each experiment run owns its injector.
type Injector struct {
	plan        Plan
	activations uint64
}

// NewInjector creates an injector for the plan.
func NewInjector(plan Plan) *Injector {
	return &Injector{plan: plan}
}

// Plan returns the injector's plan.
func (in *Injector) Plan() Plan { return in.plan }

// Activations returns how many writebacks were corrupted. Zero means the
// fault was never activated (e.g., a transient target index the run never
// reached) — the paper's "#Active" column.
func (in *Injector) Activations() uint64 { return in.activations }

// Snapshot captures the injector's activation count for checkpointing.
func (in *Injector) Snapshot() uint64 { return in.activations }

// Restore sets the activation count from a checkpoint, making the
// injector fork-safe: a transient injector restored with activations > 0
// will never fire again (its single shot already happened in the
// checkpointed prefix), and a permanent injector's #Active accounting
// continues from the prefix total instead of restarting at zero.
func (in *Injector) Restore(activations uint64) { in.activations = activations }

// Quiescent reports whether the injector can never fire again, given the
// target device's current cumulative dynamic instruction count. This is
// the terminal-decidability test behind reconvergence splicing: a forked
// run may only graft the golden suffix once its fault is provably spent.
//
// A transient plan is quiescent once it has fired (its single shot is
// used up — Hook refuses further activations) or once the device's
// counter has reached its DynIndex without firing: DynIndex is assigned
// from the device counter at the writeback instruction and the counter
// is monotone, so count >= DynIndex means the target instruction has
// already executed. A permanent plan corrupts every future dynamic
// instance of its opcode and is never quiescent while the run continues
// (campaigns run permanent faults cold anyway).
func (in *Injector) Quiescent(count uint64) bool {
	if in.plan.Model != Transient {
		return false
	}
	return in.activations > 0 || count >= in.plan.DynIndex
}

// Hook is the vm.FaultHook to install on the target machine.
func (in *Injector) Hook(ev vm.WriteEvent) uint64 {
	if ev.Device != in.plan.Target {
		return 0
	}
	switch in.plan.Model {
	case Transient:
		if ev.DynIndex != in.plan.DynIndex || in.activations > 0 {
			return 0
		}
	case Permanent:
		if ev.Op != in.plan.Opcode {
			return 0
		}
	}
	in.activations++
	return in.plan.Mask()
}

// MaxAgents is the largest number of agent instances any sim mode runs,
// sized for the per-agent step-count recording below.
const MaxAgents = 2

// Profile records, per device, the dynamic instruction stream length and
// which opcodes actually execute, measured on a golden (fault-free) run.
// Planners draw transient targets from the stream length so every plan
// addresses a real instruction, like NVBitFI's profiling pass.
//
// StepInstr additionally records, per agent and device, the cumulative
// dynamic instruction count at the end of every simulation step (the
// harness feeds it via RecordStep). This is the DynIndex→step map the
// checkpoint/fork campaign executor needs: a transient plan's activation
// instant is the step during which the target machine's counter crosses
// the plan's DynIndex, and a forked run must resume at or before it.
type Profile struct {
	InstrCount  [2]uint64              `json:"instr_count"` // indexed by vm.Device
	OpcodesSeen [2][vm.NumOpcodes]bool `json:"opcodes_seen"`
	// StepInstr[agent][device][step] is the cumulative count at the end
	// of that step. Agents that never run (Single mode's agent 1) keep
	// nil slices.
	StepInstr [MaxAgents][2][]uint64 `json:"step_instr,omitempty"`
}

// Observe returns a vm.FaultHook that records the profile without
// corrupting anything by watching every writeback. It is the reference
// observer; profiling passes use Attach, which records the same profile
// while letting the machine run its fused kernels.
func (pr *Profile) Observe() vm.FaultHook {
	return func(ev vm.WriteEvent) uint64 {
		pr.InstrCount[ev.Device] = ev.DynIndex
		pr.OpcodesSeen[ev.Device][ev.Op] = true
		return 0
	}
}

// Attach installs a scoped profiling observer on m. Its scope starts as
// every writeback opcode on both devices, and it narrows each opcode out
// after first seeing it, so OpcodesSeen is exact by construction: an
// opcode's first execution is always offered to the hook, and a fused
// kernel only runs once every opcode it writes has been seen. The
// observer does not track InstrCount; call Settle when the pass ends.
func (pr *Profile) Attach(m *vm.Machine) {
	m.SetScopedHook(func(ev vm.WriteEvent) uint64 {
		pr.OpcodesSeen[ev.Device][ev.Op] = true
		m.NarrowHook(ev.Device, vm.MaskOf(ev.Op))
		return 0
	}, [2]vm.OpMask{vm.WritebackOps, vm.WritebackOps})
}

// Settle completes a profile recorded through Attach: InstrCount, the
// DynIndex of each device's last writeback, comes from the machine's
// structural record of it (vm.Machine.LastWriteback). It reports false
// when the machine cannot fix that index — the pass ended in a trap, or
// ran a program not ending `writeback; HALT` — and the pass must then be
// repeated with the full observer, Observe.
func (pr *Profile) Settle(m *vm.Machine) bool {
	for _, d := range []vm.Device{vm.CPU, vm.GPU} {
		dyn, ok := m.LastWriteback(d)
		if !ok {
			return false
		}
		pr.InstrCount[d] = dyn
	}
	return true
}

// RecordStep appends one simulation step's end-of-step cumulative
// instruction counts for an agent. The harness calls it once per agent
// per step; counts are the machines' own counters, so they include
// non-writeback instructions (branches, HALT) and therefore bound the
// writeback DynIndex stream from above.
func (pr *Profile) RecordStep(agent int, cpu, gpu uint64) {
	if agent < 0 || agent >= MaxAgents {
		return
	}
	pr.StepInstr[agent][vm.CPU] = append(pr.StepInstr[agent][vm.CPU], cpu)
	pr.StepInstr[agent][vm.GPU] = append(pr.StepInstr[agent][vm.GPU], gpu)
}

// StepCounts returns the per-step instruction deltas for the agent and
// device (the differences of the cumulative StepInstr sequence). The
// deltas sum to the final cumulative count.
func (pr *Profile) StepCounts(agent int, d vm.Device) []uint64 {
	cum := pr.StepInstr[agent][d]
	out := make([]uint64, len(cum))
	prev := uint64(0)
	for i, c := range cum {
		out[i] = c - prev
		prev = c
	}
	return out
}

// ActivationStep returns the simulation step during which the agent's
// device executes dynamic instruction dyn: the first step whose
// end-of-step cumulative count reaches dyn. ok is false when the profiled
// run never executed that many instructions (the plan is inactive) or no
// steps were recorded for the agent.
func (pr *Profile) ActivationStep(agent int, d vm.Device, dyn uint64) (step int, ok bool) {
	if agent < 0 || agent >= MaxAgents || dyn == 0 {
		return 0, false
	}
	cum := pr.StepInstr[agent][d]
	if n := len(cum); n == 0 || cum[n-1] < dyn {
		return len(cum), false
	}
	// Binary search: first step with cum[step] >= dyn.
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] >= dyn {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, true
}

// ActiveOpcodes returns the opcodes that execute on the device, the
// permanent-fault campaign's sweep set (the paper sweeps all ISA opcodes;
// opcodes that never execute are trivially inactive, so we report them as
// inactive runs rather than executing them).
func (pr *Profile) ActiveOpcodes(d vm.Device) []vm.Opcode {
	var ops []vm.Opcode
	for op := 0; op < vm.NumOpcodes; op++ {
		if pr.OpcodesSeen[d][op] {
			ops = append(ops, vm.Opcode(op))
		}
	}
	return ops
}

// Planner generates injection plans, seeded deterministically.
type Planner struct {
	r *rng.Rand
}

// NewPlanner creates a planner with its own RNG stream.
func NewPlanner(r *rng.Rand) *Planner {
	return &Planner{r: r}
}

// TransientPlans draws n uniform transient plans over the device's
// dynamic instruction stream, as profiled. Bits are drawn uniformly over
// a 32-bit destination (matching the paper's 32-bit register files); for
// float destinations the bit is placed within the low 32 bits of the
// IEEE-754 significand half or the high half with equal probability, so
// both negligible and catastrophic corruptions occur.
func (p *Planner) TransientPlans(target vm.Device, prof *Profile, n int) []Plan {
	// Degenerate inputs plan nothing: a nil or empty profile means the
	// target device executed no instructions (there is no stream to
	// draw a dynamic index from), and n <= 0 asks for no plans. Both
	// return an empty slice rather than panicking or emitting
	// guaranteed-inactive DynIndex-0 plans that would each burn a full
	// simulation.
	if prof == nil || prof.InstrCount[target] == 0 || n <= 0 {
		return []Plan{}
	}
	plans := make([]Plan, 0, n)
	streamLen := prof.InstrCount[target]
	for i := 0; i < n; i++ {
		dyn := 1 + p.r.Uint64()%streamLen
		plans = append(plans, Plan{
			Target:   target,
			Model:    Transient,
			DynIndex: dyn,
			Bit:      p.drawBit(),
		})
	}
	obs.C("fi.plans_transient").Add(uint64(len(plans)))
	return plans
}

// PermanentPlans returns one plan per ISA opcode per repetition, the
// paper's permanent campaign structure (171 GPU / 131 CPU opcodes × 3
// reps there; vm.NumOpcodes × reps here). Each repetition redraws the
// bit position.
func (p *Planner) PermanentPlans(target vm.Device, reps int) []Plan {
	if reps <= 0 {
		return []Plan{}
	}
	plans := make([]Plan, 0, vm.NumOpcodes*reps)
	for rep := 0; rep < reps; rep++ {
		for op := 0; op < vm.NumOpcodes; op++ {
			if vm.Opcode(op).Dest() == vm.DestNone {
				// Control-flow opcodes have no destination register; the
				// real injectors skip them too. Keep them in the sweep as
				// guaranteed-inactive runs would waste a full simulation,
				// so they are excluded here and counted as inactive by
				// the campaign.
				continue
			}
			plans = append(plans, Plan{
				Target: target,
				Model:  Permanent,
				Opcode: vm.Opcode(op),
				Bit:    p.drawBit(),
			})
		}
	}
	obs.C("fi.plans_permanent").Add(uint64(len(plans)))
	return plans
}

// drawBit picks the XOR bit position. Destinations are 64-bit words in
// this VM but model 32-bit architectural registers: we draw within
// [0, 52) of the mantissa plus exponent bits with a bias that yields a
// realistic mix of masked (low-significance) and severe
// (exponent/high-mantissa) corruptions.
func (p *Planner) drawBit() uint {
	// 70% low mantissa bits (often masked), 30% high mantissa/exponent
	// (severe). Sign bit included in the severe band.
	if p.r.Float64() < 0.7 {
		return uint(p.r.Intn(40))
	}
	return uint(40 + p.r.Intn(24))
}
