package fi

import (
	"sort"
	"sync"

	"diverseav/internal/agent"
	"diverseav/internal/obs"
	"diverseav/internal/rng"
	"diverseav/internal/sensor"
	"diverseav/internal/vm"
)

// Pluggable fault surfaces. The original reproduction baked one fault
// model — the instruction-level XOR injector above — into the sim
// runner, the campaign executor, and the report. The interfaces here
// lift that model out as the first of several fault surfaces, so
// sensor-level corruption (fi/sensorfault, the AVFI model) and
// perception-interface perturbation (fi/hallucinate, the "Injecting
// Hallucinations" model) plug into the identical machinery: the same
// runner, the same checkpoint/fork execution, the same reconvergence
// splicing and lane batching where their quiescence semantics allow it,
// and the same campaign/report aggregation.
//
// The split is plan vs armed instance: a SurfacePlan is a pure value
// (campaign identity, serialized into trace metadata via String), and
// each run arms its own Surface instance from it — exactly the
// Plan/Injector split of the instruction surface, generalized.

// Canonical surface names, shared with the telemetry ledger schema
// (internal/obs validates run spans against the same set).
const (
	SurfaceInstr       = obs.SurfaceInstr
	SurfaceSensor      = obs.SurfaceSensor
	SurfaceHallucinate = obs.SurfaceHallucinate
)

// FrameHook observes (and may corrupt in place) the rendered camera
// frames of one simulation step, after rendering and before the
// distributor hands them to any agent. frames[0] is the center camera,
// frames[1] left, frames[2] right.
type FrameHook func(step int, frames *[3]sensor.Frame)

// OutputHook observes (and may perturb in place) one agent's pipeline
// output for one step, after the agent executed and before the command
// is recorded and fused. in is the input the agent ran on (read-only;
// perturbations that emulate a downstream planner reaction need the
// ego speed).
type OutputHook func(agentID, step int, in *agent.Input, out *agent.Output)

// Harness is the attachment surface a run exposes to an arming fault
// surface: the agent machines (for writeback hooks) plus the sensor and
// perception interception points. Implemented by the sim runner.
type Harness interface {
	// Agents is the number of agent instances the run executes.
	Agents() int
	// SharedProcessor reports whether the agents share one processor
	// (every mode except the FD baseline's dedicated replicas, §VI-A):
	// a permanent hardware fault then reaches every agent.
	SharedProcessor() bool
	// Machine returns agent i's compute fabric.
	Machine(i int) *vm.Machine
	// OnFrames registers a sensor-frame hook.
	OnFrames(h FrameHook)
	// OnOutput registers a perception-output hook.
	OnOutput(h OutputHook)
}

// Surface is one armed fault-surface instance: the per-run live state
// behind a SurfacePlan. It is not safe for concurrent use; each run
// owns its instance (SurfacePlan.New), which is what keeps lanes that
// restore from one shared pack snapshot — one runner per lane, one
// Surface per runner — sound.
type Surface interface {
	// Name is the surface identity ("instr", "sensorfault",
	// "hallucinate") — the key material campaigns and ledger spans
	// carry.
	Name() string
	// Arm attaches the fault to the run through the harness. Called
	// once, before the first step.
	Arm(h Harness)
	// Quiescent reports whether the fault can never act at any step
	// >= step. This is the terminal-decidability gate behind
	// reconvergence splicing: a run may only graft the golden suffix
	// once its fault is provably spent.
	Quiescent(step int) bool
	// Activations is how many times the fault actually acted (the
	// paper's "#Active"). Zero means the run is golden-equivalent.
	Activations() uint64
	// Snapshot captures the surface's activation counters for
	// checkpointing; Restore overwrites them, making the surface
	// fork-safe. The slice layout is surface-private; Restore accepts
	// a shorter (or empty) slice as "nothing to restore" — a fork from
	// a fault-free checkpoint keeps its zero counters.
	Snapshot() []uint64
	Restore(counters []uint64)
}

// SurfacePlan is one pluggable-surface injection experiment: a pure
// value. Two runs armed from the same plan are the same experiment.
type SurfacePlan interface {
	// Surface names the surface the plan injects through.
	Surface() string
	// String describes the plan for trace metadata, logs and reports.
	String() string
	// Start is the earliest simulation step at which the fault can
	// first act, or -1 when the plan is not step-decidable (the
	// instruction surface: its activation instant is a dynamic
	// instruction index, mapped to a step only through a profile).
	// Fork and lane scheduling detach at or before Start; RunFrom
	// rejects checkpoints past it.
	Start() int
	// New instantiates the per-run armed state.
	New() Surface
}

// WindowedPlan is the optional refinement a SurfacePlan implements when
// its activation window is fully step-decidable: the fault can act
// exactly within [Start(), End()). The sensor and perception surfaces
// implement it; the instruction surface does not (its reach is a
// dynamic instruction index). The propagation tracer stamps the window
// into each run's record as a site feature, so downstream analytics
// (and the Bayesian steering the ROADMAP names) can relate
// divergence latency to window position without re-parsing plan
// strings.
type WindowedPlan interface {
	SurfacePlan
	// End is the first step at which the fault can no longer act.
	End() int
}

// PlanWindow returns a plan's [start, end) activation window, or nil
// when the plan is not fully step-decidable.
func PlanWindow(p SurfacePlan) []int {
	w, ok := p.(WindowedPlan)
	if !ok || w.Start() < 0 {
		return nil
	}
	return []int{w.Start(), w.End()}
}

// SurfacePlanner generates a campaign's worth of plans for one surface,
// seeded deterministically. Every surface a campaign can name registers
// one, the instruction surface (fi/instr) included.
type SurfacePlanner interface {
	Name() string
	// Plans draws the campaign's plan list from the campaign seed
	// (through CampaignStreams). prof is the fault-free instruction
	// profile, set only for instruction-surface transient campaigns (the
	// only plans drawn against the instruction stream); target is the
	// injected device, steps the scenario length in simulation steps
	// and agents the mode's agent count. For the Transient model n is
	// the number of plans; for Permanent it is the repetition count of
	// the surface's sweep, thinned to every stride-th plan (Stride).
	Plans(seed uint64, prof *Profile, target vm.Device, model Model, steps, agents, n, stride int) []SurfacePlan
}

// CampaignStreams derives a campaign's two random streams from its
// seed: plans draws the plan list, agents the per-plan agent picks of
// the instruction surface (a transient fault strikes one process).
func CampaignStreams(seed uint64) (plans, agents *rng.Rand) {
	return rng.New(seed ^ 0xfa017), rng.New(seed ^ 0xa6e27)
}

// Stride keeps every stride-th plan of a permanent sweep (all of them
// for stride <= 1): the reduced sweeps of the fast configurations.
func Stride[T any](plans []T, stride int) []T {
	if stride <= 1 {
		return plans
	}
	kept := plans[:0]
	for i, p := range plans {
		if i%stride == 0 {
			kept = append(kept, p)
		}
	}
	return kept
}

var (
	surfaceMu  sync.RWMutex
	surfaceReg = map[string]SurfacePlanner{}
)

// RegisterSurface registers a surface planner under its name, typically
// from the surface package's init. Re-registering a name panics: two
// planners answering to one name would silently split campaign
// identity.
func RegisterSurface(p SurfacePlanner) {
	surfaceMu.Lock()
	defer surfaceMu.Unlock()
	name := p.Name()
	if name == "" {
		panic("fi: RegisterSurface: empty surface name")
	}
	if _, dup := surfaceReg[name]; dup {
		panic("fi: RegisterSurface: duplicate surface " + name)
	}
	surfaceReg[name] = p
}

// SurfaceByName returns the registered planner for a surface name.
func SurfaceByName(name string) (SurfacePlanner, bool) {
	surfaceMu.RLock()
	defer surfaceMu.RUnlock()
	p, ok := surfaceReg[name]
	return p, ok
}

// SurfaceNames lists every registered surface name, sorted: the valid
// set behind the drivers' -surface flags.
func SurfaceNames() []string {
	surfaceMu.RLock()
	defer surfaceMu.RUnlock()
	names := make([]string, 0, len(surfaceReg))
	for n := range surfaceReg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
