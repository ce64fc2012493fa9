// Package instr is the instruction-level fault surface: the paper's
// NVBitFI-style transient/permanent XOR injector (internal/fi's Plan +
// Injector), repackaged as the first fi.Surface implementation. The
// injector itself is untouched — this package only adapts its VM
// write-hook arming (with the hook's opcode scope), quiescence probe,
// and activation counters to the pluggable-surface interface, and
// registers the surface's campaign planner, so neither the sim runner
// nor the campaign pipeline needs to know about *fi.Injector at all.
package instr

import (
	"diverseav/internal/fi"
	"diverseav/internal/vm"
)

// Plan wraps one fi.Plan as a fi.SurfacePlan. Agent is the index of the
// process a transient fault strikes (fi.Plan carries no agent), taken
// modulo the run's agent count.
type Plan struct {
	P     fi.Plan
	Agent int
}

func (p Plan) Surface() string { return fi.SurfaceInstr }

// String is exactly fi.Plan.String: trace.Fault bytes must not change
// across the surface refactor.
func (p Plan) String() string { return p.P.String() }

// Start is -1: a dynamic-instruction-index activation instant is not
// step-decidable without a profile, so fork points keep coming from
// fi.Profile.ActivationStep at the campaign layer.
func (p Plan) Start() int { return -1 }

func (p Plan) New() fi.Surface { return &surface{plan: p} }

// surface is one armed instruction-surface instance: the per-agent
// injectors plus the machines their quiescence probes read.
type surface struct {
	plan      Plan
	injectors []*fi.Injector
	machines  []*vm.Machine
}

func (s *surface) Name() string { return fi.SurfaceInstr }

// Arm installs the write hook per agent with the paper's reach
// semantics: a transient fault strikes one process; a permanent fault
// strikes the shared processor, so it reaches every agent except in the
// FD baseline's dedicated-replica mode, where it strikes one replica
// (§VI-B). Each hook is scoped (see arm): everything else runs on the
// VM's fast paths.
func (s *surface) Arm(h fi.Harness) {
	n := h.Agents()
	shared := s.plan.P.Model == fi.Permanent && h.SharedProcessor()
	for i := 0; i < n; i++ {
		if !shared && i != s.plan.Agent%n {
			continue
		}
		inj := fi.NewInjector(s.plan.P)
		arm(h.Machine(i), inj)
		s.injectors = append(s.injectors, inj)
		s.machines = append(s.machines, h.Machine(i))
	}
}

// arm installs inj on m with the narrowest exact scope for the
// machine's current state. A permanent plan watches only its opcode on
// its target device. A transient plan watches every writeback on its
// target until it is quiescent — fired, or past its DynIndex — and then
// narrows to nothing, so the rest of the run is hook-free.
func arm(m *vm.Machine, inj *fi.Injector) {
	p := inj.Plan()
	var scope [2]vm.OpMask
	if p.Model == fi.Permanent {
		scope[p.Target] = vm.MaskOf(p.Opcode)
		m.SetScopedHook(inj.Hook, scope)
		return
	}
	scope[p.Target] = vm.WritebackOps
	m.SetScopedHook(func(ev vm.WriteEvent) uint64 {
		mask := inj.Hook(ev)
		narrowIfQuiescent(m, inj, ev.DynIndex)
		return mask
	}, scope)
	narrowIfQuiescent(m, inj, m.InstrCount(p.Target))
}

// narrowIfQuiescent empties the hook's scope once inj can never fire
// again at or after the target device's instruction count.
func narrowIfQuiescent(m *vm.Machine, inj *fi.Injector, count uint64) {
	if inj.Quiescent(count) {
		m.NarrowHook(inj.Plan().Target, vm.WritebackOps)
	}
}

// Quiescent ignores the step: instruction-surface quiescence is decided
// against each armed machine's cumulative dynamic instruction count,
// exactly the probe the splice gate ran before the refactor.
func (s *surface) Quiescent(int) bool {
	for k, inj := range s.injectors {
		if !inj.Quiescent(s.machines[k].InstrCount(inj.Plan().Target)) {
			return false
		}
	}
	return true
}

func (s *surface) Activations() uint64 {
	var total uint64
	for _, inj := range s.injectors {
		total += inj.Activations()
	}
	return total
}

// Snapshot/Restore are positional over the armed injectors, preserving
// the checkpoint Activations layout of the pre-refactor runner.
func (s *surface) Snapshot() []uint64 {
	out := make([]uint64, len(s.injectors))
	for k, inj := range s.injectors {
		out[k] = inj.Snapshot()
	}
	return out
}

// Restore re-arms every hook after restoring the counters, so each
// scope matches the restored state: a transient injector restored as
// fired (or behind its machine's restored counter) starts out narrowed
// to nothing, and one restored to an earlier instant watches again.
func (s *surface) Restore(counters []uint64) {
	for k, inj := range s.injectors {
		if k < len(counters) {
			inj.Restore(counters[k])
		}
		arm(s.machines[k], inj)
	}
}

// planner draws instruction-surface campaigns (fi.SurfacePlanner)
// through fi.Planner: transient plans uniform over the profiled dynamic
// instruction stream, permanent plans one per destination opcode per
// repetition. Each plan carries its agent pick, drawn in plan order
// from the campaign's agent stream.
type planner struct{}

func (planner) Name() string { return fi.SurfaceInstr }

func (planner) Plans(seed uint64, prof *fi.Profile, target vm.Device, model fi.Model, _, _, n, stride int) []fi.SurfacePlan {
	planStream, agentStream := fi.CampaignStreams(seed)
	p := fi.NewPlanner(planStream)
	var faults []fi.Plan
	if model == fi.Transient {
		faults = p.TransientPlans(target, prof, n)
	} else {
		faults = fi.Stride(p.PermanentPlans(target, n), stride)
	}
	plans := make([]fi.SurfacePlan, len(faults))
	for i, f := range faults {
		plans[i] = Plan{P: f, Agent: agentStream.Intn(2)}
	}
	return plans
}

func init() { fi.RegisterSurface(planner{}) }
