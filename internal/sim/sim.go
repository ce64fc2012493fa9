// Package sim is the experiment harness: it wires the world simulator,
// sensors, the sensor data distributor, the agents, the control fusion
// engine and (optionally) a fault injector into one synchronous
// 40 Hz closed loop, producing a trace per run. It is the analogue of
// the paper's Driver + simulator + DiverseAV-enabled ADS stack (Fig 3).
package sim

import (
	"errors"
	"math"

	"diverseav/internal/agent"
	"diverseav/internal/fi"
	"diverseav/internal/geom"
	"diverseav/internal/par"
	"diverseav/internal/physics"
	"diverseav/internal/rng"
	"diverseav/internal/scenario"
	"diverseav/internal/sensor"
	"diverseav/internal/trace"
	"diverseav/internal/vm"
)

// Hz is the synchronous sensor/control frequency, matching the paper's
// CARLA configuration.
const Hz = 40.0

// Mode selects the agent configuration (paper §IV-B: round-robin,
// duplicate, or single).
type Mode int

// Agent modes.
const (
	// Single runs one agent on every frame (the original ADS).
	Single Mode = iota
	// RoundRobin is DiverseAV: two agents, alternating frames.
	RoundRobin
	// Duplicate is the loosely-coupled fully-duplicated baseline
	// (FD-ADS): two agents, each receiving every frame.
	Duplicate
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case RoundRobin:
		return "diverseav"
	case Duplicate:
		return "duplicate"
	default:
		return "single"
	}
}

// Agents returns the number of agent instances the mode runs.
func (m Mode) Agents() int {
	if m == Single {
		return 1
	}
	return 2
}

// Config is one experimental run's configuration.
type Config struct {
	Scenario *scenario.Scenario
	Mode     Mode
	Seed     uint64
	// Surface, when non-nil, is the injected fault (fi.SurfacePlan), the
	// run's only injection doorway: an instruction-level XOR fault
	// (fi/instr, whose plan names the agent a transient fault strikes),
	// an ECC-off memory bit flip (fi/memfault), sensor-frame corruption,
	// perception-interface perturbation, or any other surface.
	Surface fi.SurfacePlan
	// Profile, when non-nil, records the fault-free instruction profile
	// of agent 0 (used by planners). Mutually exclusive with Surface.
	Profile *fi.Profile
	// SensorNoiseStd overrides the camera noise amplitude when > 0.
	SensorNoiseStd float64
	// Overlap is the fraction of frames delivered to BOTH agents in
	// round-robin mode (the paper's §III-D footnote: for an ADS with a
	// lower engineering margin the distributor can reduce the input rate
	// by less than 50%, at extra compute cost). 0 = pure round-robin;
	// 0.5 = every second frame is duplicated to both agents.
	Overlap float64
	// StepHook, when non-nil, observes each step after sensing and
	// before agent execution (visualization and debugging).
	StepHook func(step int, env *scenario.Env, frames *[3]sensor.Frame)
	// SerialRender forces the three cameras to render sequentially on
	// the calling goroutine instead of fanning out over the shared
	// worker pool. Rendering is deterministic either way (the frames
	// are disjoint buffers); the determinism regression tests use this
	// to pin the parallel path to the sequential one.
	SerialRender bool
	// CheckpointEvery, when > 0, snapshots the full closed-loop state
	// every CheckpointEvery steps (at the top of the step, before it
	// executes) into Result.Checkpoints. A checkpointed golden pass costs
	// a state copy per checkpoint (~0.5 MB at two agents); injection
	// campaigns fork from the checkpoints via RunFrom instead of
	// re-simulating the shared fault-free prefix.
	CheckpointEvery int
	// ForceVMTier0 pins every agent machine to the tier-0 scalar
	// interpreter, disabling the fused tier-1 kernels even on hook-free
	// runs. The tiers are bit-identical by construction (and by the
	// differential suites); this switch exists so trace-level regression
	// tests and benchmarks can compare them end to end.
	ForceVMTier0 bool
	// Golden, when non-nil, makes the run divergence-aware: at every step
	// for which the golden stream holds a checkpoint, a run whose fault is
	// provably spent compares its state digest against the golden digest
	// and, on confirmed bit-exact reconvergence, splices the golden suffix
	// onto its trace instead of simulating it. The output is byte-identical
	// either way (the splice-equivalence tests pin this), so Golden is pure
	// execution strategy — like CheckpointEvery, it must never enter an
	// artifact cache key.
	Golden *GoldenStream
	// DisableSplice turns reconvergence splicing off while keeping Golden
	// set: the escape hatch for A/B-ing spliced against full-length
	// execution.
	DisableSplice bool
	// Propagation, when set on a divergence-aware injection run (Golden
	// non-nil, Surface set), arms the fault-propagation tracer:
	// a read-only probe that, at every golden checkpoint step, compares
	// each subsystem's state against the golden stream and records
	// first-divergence attribution and deviation trajectories into
	// Result.Propagation. Pure observability — the probes never feed
	// back into splice/fork/lane decisions, the recorded trace is
	// byte-identical with tracing on or off, and a disabled tracer costs
	// nothing. The record itself IS part of the campaign artifact, so
	// campaign specs key on this flag (unlike Golden).
	Propagation bool
}

// Result is the run outcome: the full trace plus fault activation
// bookkeeping, the execution-strategy metadata (which steps were really
// simulated and why simulation stopped, if early), and — when the run
// was configured with CheckpointEvery — the emitted checkpoints, in
// step order.
type Result struct {
	Trace       *trace.Trace
	Activations uint64
	Checkpoints []*Checkpoint
	Exec        ExecInfo
	// Propagation is the fault-propagation record when Config.Propagation
	// armed the tracer AND a probe observed the run diverged from the
	// golden execution; nil otherwise (tracing off, fault-free run, or a
	// fault that never perturbed probed state).
	Propagation *Propagation
}

// runner is one experiment's live state: everything the closed loop
// mutates while stepping, plus the reused render and collision scratch.
// Splitting setup (newRunner), stepping (run), and state capture
// (snapshot/restore) is what makes checkpoint/fork execution possible:
// RunFrom builds a runner the ordinary way — re-instantiating the
// scenario rebuilds the NPC script closures with their seeded immutable
// parameters — then overwrites every piece of mutable state from the
// checkpoint and resumes the loop mid-run.
type runner struct {
	cfg    Config
	env    *scenario.Env
	imu    *sensor.IMU
	jitter *rng.Rand
	agents []*agent.Agent
	// surface is the armed fault surface, Config.Surface instantiated
	// (nil on fault-free runs). All fault mechanics — quiescence for
	// the splice gate, activation counters, checkpoint snapshot/restore
	// — go through this interface.
	surface fi.Surface
	// frameHooks/outputHooks are the interception points a surface
	// registered when it armed (sensor-frame corruption and
	// perception-output perturbation respectively).
	frameHooks  []fi.FrameHook
	outputHooks []fi.OutputHook
	golden      *GoldenStream
	// prop is the fault-propagation tracer's state (nil unless
	// Config.Propagation armed it): read-only observation, never input
	// to execution.
	prop  *propTracker
	tr    *trace.Trace
	steps int
	// start is the first step this runner simulates (0 for a cold run,
	// the fork/detach step otherwise); set by run.
	start int
	// profilePending is set while the scoped profiling observer is
	// armed and cleared by finish once Config.Profile holds the whole
	// pass's profile; a pass that could not settle leaves it set and Run
	// repeats the pass with the full observer.
	profilePending bool

	// Loop-carried state (checkpointed).
	applied   physics.Controls
	appliedBy int
	// lastFrame tracks when each agent last received data, for its
	// effective sensing period (varies under partial overlap).
	lastFrame [2]int
	// egoSt is the route-projection cursor hint for the ego.
	egoSt float64

	// Per-run scratch, reused every step so the hot loop allocates
	// nothing: the scene (with its obstacle and stop-bar slices), the
	// camera frame buffers, and the NPC vehicle list for collision/CVIP
	// checks. None of it is checkpointed: every field is fully rewritten
	// each step before use.
	frames      [3]sensor.Frame
	scene       *sensor.Scene
	vehicles    []*physics.Vehicle
	checkpoints []*Checkpoint
	renderCam   func(i int)
	// Per-step scratch handed from stepWorld to stepAgents/stepFinish,
	// fully rewritten each step. stepIn is the reusable agent-input
	// buffer: it lives on the runner so handing its address through the
	// output-hook indirection cannot force a per-step heap escape.
	stepReading sensor.IMUGPS
	stepLimit   float64
	stepCmds    [2]trace.Cmd
	stepIn      agent.Input
	stepOut     agent.Output
}

// Run executes one experiment synchronously and returns its result.
func Run(cfg Config) *Result {
	r := newRunner(cfg)
	res := r.run(0)
	if r.profilePending {
		// The scoped observer could not fix InstrCount (the pass ended in
		// a trap, or an agent program lacks a `writeback; HALT` tail).
		// Observation never changes execution, so the repeat yields the
		// same trace and checkpoints.
		ReleaseCheckpoints(res.Checkpoints)
		res = runFullProfile(cfg)
	}
	return res
}

// runFullProfile is a profiling pass whose observer watches every
// writeback of agent 0 (fi.Profile.Observe) instead of narrowing its
// scope: the reference for the scoped pass, and its fallback.
func runFullProfile(cfg Config) *Result {
	*cfg.Profile = fi.Profile{}
	r := newRunner(cfg)
	r.agents[0].Machine().SetFaultHook(cfg.Profile.Observe())
	r.profilePending = false
	return r.run(0)
}

// harness exposes the runner's attachment points to an arming fault
// surface (fi.Harness). A separate view type keeps the hook-
// registration API off the runner's own method set.
type harness runner

// Agents is the number of agent instances this run executes.
func (h *harness) Agents() int { return len(h.agents) }

// SharedProcessor: every mode except the FD baseline's dedicated
// replicas runs its agents on one shared processor (§VI-A).
func (h *harness) SharedProcessor() bool { return h.cfg.Mode != Duplicate }

// Machine returns agent i's compute fabric.
func (h *harness) Machine(i int) *vm.Machine { return h.agents[i].Machine() }

// OnFrames registers a sensor-frame corruption hook.
func (h *harness) OnFrames(hook fi.FrameHook) { h.frameHooks = append(h.frameHooks, hook) }

// OnOutput registers a perception-output perturbation hook.
func (h *harness) OnOutput(hook fi.OutputHook) { h.outputHooks = append(h.outputHooks, hook) }

// newRunner instantiates the scenario and wires sensors, agents, fault
// hooks, the trace, and the reusable scratch for one run.
func newRunner(cfg Config) *runner {
	r := &runner{cfg: cfg}
	r.env = cfg.Scenario.Instantiate(cfg.Seed)
	root := rng.New(cfg.Seed)
	r.imu = sensor.NewIMU(root.Split("imu"))
	r.jitter = root.Split("agent-jitter")

	nAgents := cfg.Mode.Agents()
	r.agents = make([]*agent.Agent, nAgents)
	for i := range r.agents {
		r.agents[i] = agent.New(agentName(i))
		if cfg.ForceVMTier0 {
			r.agents[i].Machine().SetMaxTier(0)
		}
	}
	// Fault arming goes through the pluggable-surface interface: the
	// runner arms whatever surface the plan names.
	switch {
	case cfg.Surface != nil:
		r.surface = cfg.Surface.New()
		r.surface.Arm((*harness)(r))
	case cfg.Profile != nil:
		cfg.Profile.Attach(r.agents[0].Machine())
		r.profilePending = true
	}

	noiseStd := 1.2
	if cfg.SensorNoiseStd > 0 {
		noiseStd = cfg.SensorNoiseStd
	}

	r.tr = &trace.Trace{
		Scenario: cfg.Scenario.Name,
		Mode:     cfg.Mode.String(),
		Seed:     cfg.Seed,
		Hz:       Hz,
		Outcome:  trace.OutcomeCompleted,
	}
	if cfg.Surface != nil {
		r.tr.Fault = cfg.Surface.String()
	}

	r.golden = cfg.Golden
	if cfg.Propagation && cfg.Golden != nil && cfg.Surface != nil {
		r.prop = &propTracker{firstStep: -1, actStep: -1}
	}
	r.steps = int(cfg.Scenario.Duration * Hz)
	r.appliedBy = -1
	r.lastFrame = [2]int{-1, -1}
	r.frames = [3]sensor.Frame{sensor.NewFrame(), sensor.NewFrame(), sensor.NewFrame()}
	r.tr.Steps = make([]trace.Step, 0, r.steps)

	r.scene = &sensor.Scene{
		Route:             r.env.Route.Path,
		RouteCenterOffset: 1.75,
		RoadHalfWidth:     3.5,
		LaneMarkOffsets:   laneMarkOffsets,
		Obstacles:         make([]sensor.RenderObstacle, 0, len(r.env.NPCs)),
		StopBars:          make([]sensor.StopBar, 0, 1),
		NoiseSeed:         cfg.Seed,
		NoiseStd:          noiseStd,
	}
	r.egoSt, _ = r.env.Route.Path.Project(r.env.Ego.State.Pose.Pos)
	r.vehicles = make([]*physics.Vehicle, 0, len(r.env.NPCs))
	r.renderCam = func(i int) {
		sensor.Render(renderOrder[i], r.scene, r.frames[i])
	}
	return r
}

// run executes the closed loop from step `start` (0 for a cold run, the
// checkpoint's step for a fork) to the end of the scenario. The loop
// body is split into its phases — stepWorld (NPCs, physics, render,
// frame hooks), stepAgents (the agents' VM pipelines) and stepFinish
// (actuation, trace record, collision verdict) — which stepOnce
// composes; the split gives each phase a boundary a per-phase timer can
// sit on.
func (r *runner) run(start int) *Result {
	cfg := r.cfg
	r.start = start
	for step := start; step < r.steps; step++ {
		if cfg.CheckpointEvery > 0 && step > start && step%cfg.CheckpointEvery == 0 {
			r.checkpoints = append(r.checkpoints, r.snapshot(step))
		}
		// Propagation probe: read-only divergence attribution against the
		// golden checkpoint at this step, independent of the splice gate
		// (it fires under DisableSplice too, at the identical instants).
		if r.prop != nil && step > start {
			r.probeProp(step)
		}
		// Reconvergence probe: when the golden stream holds a checkpoint
		// for this exact top-of-step instant and the fault is spent,
		// bit-exact state equality lets the run graft the golden suffix
		// instead of simulating it.
		if r.golden != nil && !cfg.DisableSplice && step > start {
			if res := r.trySplice(step, start); res != nil {
				return res
			}
		}
		if res := r.stepOnce(step); res != nil {
			return res
		}
	}

	return r.finish(start)
}

// stepOnce runs one full closed-loop step; a non-nil result means the
// run ended at this step (DUE or collision).
func (r *runner) stepOnce(step int) *Result {
	r.stepWorld(step)
	if res := r.stepAgents(step); res != nil {
		return res
	}
	return r.stepFinish(step)
}

// stepWorld advances NPC intent and physics, renders this step's sensor
// data into the frame buffers (IMU reading and speed limit land in the
// per-step scratch for stepAgents), then runs the armed frame hooks and
// the step hook.
func (r *runner) stepWorld(step int) {
	cfg, env := r.cfg, r.env
	dt := 1.0 / Hz
	t := float64(step) * dt

	for _, n := range env.NPCs {
		if n.Script != nil {
			n.Script(t, n, env)
		}
		n.Follower.Step(dt)
	}

	st0, _ := env.Route.Path.ProjectNear(env.Ego.State.Pose.Pos, r.egoSt, egoProjectWindow)
	r.egoSt = st0
	updateScene(r.scene, env, st0, t, step)
	if cfg.SerialRender {
		r.renderCam(0)
		r.renderCam(1)
		r.renderCam(2)
	} else {
		par.ForEach(3, r.renderCam)
	}
	r.stepReading = r.imu.Read(env.Ego.State)
	r.stepLimit = env.Route.LimitAt(st0)
	// Sensor-surface faults corrupt the rendered frames here, between
	// the sensor and the distributor: every agent that receives this
	// step's frame sees the corrupted bytes, exactly like a faulty
	// camera link. (StepHook observers therefore see them too — the
	// visualizer shows what the agents saw.) ECC-off memory flips
	// (fi/memfault) land here too, before any agent executes.
	for _, hook := range r.frameHooks {
		hook(step, &r.frames)
	}
	if cfg.StepHook != nil {
		cfg.StepHook(step, env, &r.frames)
	}
}

// stepAgents distributes the frame, executes each receiving agent, and
// fuses controls; a non-nil result is a finished DUE run.
func (r *runner) stepAgents(step int) *Result {
	r.stepCmds = [2]trace.Cmd{}
	for id, ag := range r.agents {
		if !receives(r.cfg.Mode, r.cfg.Overlap, id, step) {
			continue
		}
		r.stepIn = agent.Input{
			Center: r.frames[0], Left: r.frames[1], Right: r.frames[2],
			Speed:      float64(r.stepReading.Speed),
			Dt:         float64(step-r.lastFrame[id]) / Hz,
			SpeedLimit: r.stepLimit,
			FrameIndex: step,
		}
		r.lastFrame[id] = step
		if r.cfg.Mode == Duplicate {
			// The FD baseline's agents sample their sensors independently;
			// this per-agent measurement jitter stands in for the inherent
			// software/hardware non-determinism the paper observes between
			// loosely-coupled replicas.
			r.stepIn.Speed += r.jitter.NormScaled(0, 0.03)
		}
		out, err := ag.Step(&r.stepIn)
		if err != nil {
			finishDUE(r.tr, r.env, step, err)
			return r.finish(r.start)
		}
		r.stepOut = out
		// Perception-surface hooks act on what the planner *reported*,
		// after the pipeline ran and before anything downstream reads it.
		for _, hook := range r.outputHooks {
			hook(id, step, &r.stepIn, &r.stepOut)
		}
		r.stepCmds[id] = trace.Cmd{
			Valid:        true,
			Throttle:     r.stepOut.Controls.Throttle,
			Brake:        r.stepOut.Controls.Brake,
			Steer:        r.stepOut.Controls.Steer,
			ObstacleDist: r.stepOut.ObstacleDist,
		}
		if fusionDrives(r.cfg.Mode, id, step) {
			r.applied = r.stepOut.Controls
			r.appliedBy = id
		}
	}
	return nil
}

// stepFinish profiles, actuates, records the trace step, and evaluates
// the collision verdict; a non-nil result finishes the run.
func (r *runner) stepFinish(step int) *Result {
	cfg, env, tr := r.cfg, r.env, r.tr
	dt := 1.0 / Hz
	t := float64(step) * dt

	// Propagation tracing: latch the first step whose agent phase
	// activated the fault (a no-op without a tracker).
	r.propActivationPoll(step)

	// Profiling: record each agent's end-of-step cumulative instruction
	// counts, the DynIndex→step map used to pick fork points for
	// transient plans.
	if cfg.Profile != nil {
		for i, ag := range r.agents {
			cfg.Profile.RecordStep(i, ag.Machine().InstrCount(vm.CPU), ag.Machine().InstrCount(vm.GPU))
		}
	}

	// Actuation and kinematics.
	env.Ego.Step(r.applied, dt)

	// Record.
	r.vehicles = npcVehicles(env, r.vehicles)
	cvip, ok := physics.CVIP(env.Ego, r.vehicles, 2.2, 80)
	if !ok {
		cvip = -1
	}
	s := env.Ego.State
	tr.Steps = append(tr.Steps, trace.Step{
		T: t,
		X: s.Pose.Pos.X, Y: s.Pose.Pos.Y, Z: 0,
		V: s.V, A: s.A, Omega: s.Omega, AlphaDot: s.AlphaDot,
		Throttle: r.applied.Throttle, Brake: r.applied.Brake, Steer: r.applied.Steer,
		AgentID: r.appliedBy,
		Cmd:     r.stepCmds,
		CVIP:    cvip,
	})
	tr.EndStep = step

	// Safety check.
	for _, n := range env.NPCs {
		if physics.Collides(env.Ego, n.Follower.Vehicle) {
			tr.Outcome = trace.OutcomeCollision
			tr.CollisionStep = step
			return r.finish(r.start)
		}
	}
	return nil
}

// finish assembles the Result from the runner's final state and
// publishes the run's aggregate telemetry (a no-op when disabled).
func (r *runner) finish(start int) *Result {
	recordInstr(r.tr, r.agents)
	if r.profilePending && r.cfg.Profile.Settle(r.agents[0].Machine()) {
		r.profilePending = false
	}
	res := &Result{
		Trace:       r.tr,
		Activations: surfaceActivations(r.surface),
		Checkpoints: r.checkpoints,
		Exec:        ExecInfo{SimulatedFrom: start, SimulatedTo: r.tr.EndStep + 1},
		Propagation: r.buildPropagation(),
	}
	r.publishRun(res)
	return res
}

func agentName(i int) string {
	if i == 0 {
		return "agent0"
	}
	return "agent1"
}

// receives implements the sensor data distributor: which agent gets the
// frame at this step. In round-robin mode a nonzero overlap fraction
// duplicates every ⌈1/overlap⌉-th frame to both agents (§III-D
// footnote).
func receives(m Mode, overlap float64, id, step int) bool {
	switch m {
	case Single:
		return id == 0
	case RoundRobin:
		if step%2 == id {
			return true
		}
		if overlap > 0 {
			period := int(1/overlap + 0.5)
			if period < 1 {
				period = 1
			}
			return step%period == 0
		}
		return false
	default: // Duplicate
		return true
	}
}

// fusionDrives implements the control fusion engine: whose actuation
// command drives the vehicle this step.
func fusionDrives(m Mode, id, step int) bool {
	switch m {
	case Single:
		return id == 0
	case RoundRobin:
		return step%2 == id
	default:
		// FD-ADS drives with agent 0 and uses agent 1 purely as a
		// detection reference (§VI-B).
		return id == 0
	}
}

// egoProjectWindow bounds the per-step ego projection search around the
// previous step's station (the ego moves well under a meter per step).
const egoProjectWindow = 40.0

// laneMarkOffsets is the painted-marking layout of all our two-lane
// roads, relative to the road center. Shared read-only across runs.
var laneMarkOffsets = []float64{-3.5, 0, 3.5}

// renderOrder maps frame-buffer index to camera: frames[0] is center,
// frames[1] left, frames[2] right (the agent input layout).
var renderOrder = [3]sensor.CameraID{sensor.CamCenter, sensor.CamLeft, sensor.CamRight}

// npcVehicles refreshes the reusable NPC vehicle list (scripts may add
// NPCs mid-run; the common case is a stable set).
func npcVehicles(env *scenario.Env, vs []*physics.Vehicle) []*physics.Vehicle {
	vs = vs[:0]
	for _, n := range env.NPCs {
		vs = append(vs, n.Follower.Vehicle)
	}
	return vs
}

// updateScene refreshes the reusable rasterizer input for the current
// step. The route path is the ego lane centerline; the road center sits
// half a lane to its left (RouteCenterOffset), and the rasterizer
// evaluates it with a station cursor over [st0, st0+MaxGroundDist].
func updateScene(scene *sensor.Scene, env *scenario.Env, st0, t float64, step int) {
	scene.EgoPose = env.Ego.State.Pose
	scene.RouteStation = st0
	scene.Step = step
	scene.Obstacles = scene.Obstacles[:0]
	for _, n := range env.NPCs {
		v := n.Follower.Vehicle
		scene.Obstacles = append(scene.Obstacles, sensor.RenderObstacle{
			Pose:    v.State.Pose,
			HalfL:   v.HalfL,
			HalfW:   v.HalfW,
			Braking: n.Braking,
		})
	}
	scene.StopBars = scene.StopBars[:0]
	if light, ok := env.Town.NextLight(env.Route.LaneID, st0); ok {
		if d := light.Station - st0; d < 70 && light.StateAt(t) != 0 {
			scene.StopBars = append(scene.StopBars, sensor.StopBar{Dist: d})
		}
	}
}

// finishDUE records a platform-detected crash/hang.
func finishDUE(tr *trace.Trace, env *scenario.Env, step int, err error) {
	var trap *vm.Trap
	if errors.As(err, &trap) && trap.Kind == vm.TrapStepBudget {
		tr.Outcome = trace.OutcomeHang
	} else {
		tr.Outcome = trace.OutcomeCrash
	}
	tr.EndStep = step
	_ = env
}

func recordInstr(tr *trace.Trace, agents []*agent.Agent) {
	for i, ag := range agents {
		tr.InstrCPU[i] = ag.Machine().InstrCount(vm.CPU)
		tr.InstrGPU[i] = ag.Machine().InstrCount(vm.GPU)
	}
}

func surfaceActivations(s fi.Surface) uint64 {
	if s == nil {
		return 0
	}
	return s.Activations()
}

// MaxTrajectoryDivergence returns max_t |pos_t − base_t| between a trace
// and a baseline trajectory (the paper's δ_pos). The comparison runs
// over the overlapping prefix.
func MaxTrajectoryDivergence(tr *trace.Trace, base []geom.Vec2) float64 {
	n := len(tr.Steps)
	if len(base) < n {
		n = len(base)
	}
	maxD := 0.0
	for i := 0; i < n; i++ {
		d := geom.V2(tr.Steps[i].X, tr.Steps[i].Y).Dist(base[i])
		if d > maxD {
			maxD = d
		}
	}
	return maxD
}

// MeanTrajectory computes the per-step mean position over a set of
// traces, up to the length of the shortest (the golden baseline of
// §V-B/§V-C).
func MeanTrajectory(traces []*trace.Trace) []geom.Vec2 {
	if len(traces) == 0 {
		return nil
	}
	n := math.MaxInt
	for _, tr := range traces {
		if len(tr.Steps) < n {
			n = len(tr.Steps)
		}
	}
	out := make([]geom.Vec2, n)
	for _, tr := range traces {
		for i := 0; i < n; i++ {
			out[i].X += tr.Steps[i].X
			out[i].Y += tr.Steps[i].Y
		}
	}
	for i := range out {
		out[i] = out[i].Scale(1 / float64(len(traces)))
	}
	return out
}
