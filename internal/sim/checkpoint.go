package sim

import (
	"fmt"
	"sync"

	"diverseav/internal/physics"
	"diverseav/internal/rng"
	"diverseav/internal/scenario"
	"diverseav/internal/trace"
	"diverseav/internal/vm"
)

// Checkpoint is a deep snapshot of a run's full mutable state at the top
// of a step (before the step executes), sufficient to resume the closed
// loop bit-for-bit. A checkpoint is taken by a golden pass configured
// with Config.CheckpointEvery and consumed by RunFrom, which replays
// only the suffix — the paper's injection campaigns spend most of their
// wall clock re-simulating the identical fault-free prefix of every
// transient run, and this is the NVBitFI-style profile-once/fork-late
// fix.
//
// What is captured: scenario state (ego + NPC followers, script Phase
// flags, the scenario RNG), the IMU and duplicate-jitter RNG streams,
// every agent machine (memory, register files, dynamic instruction
// counters), fault-surface activation counters, the control/fusion latches,
// the ego route-projection cursor, and the trace prefix.
//
// What is deliberately NOT captured: camera frames and render scratch
// (every pixel an agent reads is rewritten each step before use; the
// rest is never read), compiled agent
// programs and raster LUTs (immutable), towns/routes/polylines (shared
// read-only, including mid-run merge paths, which FollowerState keeps
// by pointer), and fault hooks (run configuration, re-wired by
// newRunner).
//
// A checkpoint is read-only after creation: RunFrom restores by copy,
// so any number of forks — including parallel ones — can share it.
type Checkpoint struct {
	// Identity of the run that produced the snapshot. RunFrom refuses a
	// config that disagrees: the restored state is only meaningful under
	// the exact same scenario, seed, and distribution settings.
	Scenario       string
	Mode           Mode
	Seed           uint64
	Overlap        float64
	SensorNoiseStd float64

	// Step is the simulation step the snapshot was taken at (the resumed
	// loop executes steps [Step, total)).
	Step int

	// Digest is the FNV-64a fold of the runner's full mutable state at
	// Step (runner.digest). Divergence-aware forks compare their own
	// digest against it as the cheap necessary condition for a
	// reconvergence splice; equality is always confirmed by the full
	// stateEquals before any suffix is grafted.
	Digest uint64

	Env         *scenario.EnvState
	IMU         rng.State
	Jitter      rng.State
	Agents      []*vm.MachineState
	Activations []uint64

	// Loop-carried latches.
	Applied   physics.Controls
	AppliedBy int
	LastFrame [2]int
	EgoSt     float64

	// Trace is the recorded prefix (steps [0, Step)). Only its Steps and
	// EndStep are restored; the fork keeps its own metadata (Fault
	// string, Outcome) from its config.
	Trace *trace.Trace
}

// cpPool recycles Checkpoints (and, transitively, their agent memory
// images, NPC slices, and trace-prefix storage — by far the largest
// allocations of a checkpointed pass) between campaign passes. A fork
// campaign takes the same snapshot shape tens of times per scenario;
// recycling via ReleaseCheckpoints brings its steady-state allocation
// behavior back to that of a cold (non-checkpointed) campaign.
var cpPool = sync.Pool{New: func() any { return new(Checkpoint) }}

// ReleaseCheckpoints returns checkpoints to the pool for reuse by later
// checkpointed passes. The caller must guarantee that no fork still
// runs from — or otherwise holds — any of them: after release their
// contents are undefined. The campaign manager calls this once all of a
// campaign's injection forks have completed.
func ReleaseCheckpoints(cps []*Checkpoint) {
	for _, cp := range cps {
		if cp != nil {
			cpPool.Put(cp)
		}
	}
}

// snapshot deep-copies the runner's mutable state at the top of `step`
// into a (possibly recycled) checkpoint.
func (r *runner) snapshot(step int) *Checkpoint {
	cp := cpPool.Get().(*Checkpoint)
	if in := instruments(); in != nil && cp.Env != nil {
		// A non-nil Env marks a recycled buffer (New produces zero
		// Checkpoints): pool reuse is exactly what the allocation
		// numbers of lab.BenchmarkCampaign depend on, so surface it.
		in.cpReuse.Inc()
	}
	cp.Scenario = r.cfg.Scenario.Name
	cp.Mode = r.cfg.Mode
	cp.Seed = r.cfg.Seed
	cp.Overlap = r.cfg.Overlap
	cp.SensorNoiseStd = r.cfg.SensorNoiseStd
	cp.Step = step
	cp.Digest = r.digest()
	cp.Env = r.env.SnapshotInto(cp.Env)
	cp.IMU = r.imu.Snapshot()
	cp.Jitter = r.jitter.Snapshot()
	cp.Applied = r.applied
	cp.AppliedBy = r.appliedBy
	cp.LastFrame = r.lastFrame
	cp.EgoSt = r.egoSt
	cp.Trace = r.tr.SnapshotInto(cp.Trace)
	if cap(cp.Agents) < len(r.agents) {
		cp.Agents = make([]*vm.MachineState, len(r.agents))
	} else {
		cp.Agents = cp.Agents[:len(r.agents)]
	}
	for i, ag := range r.agents {
		cp.Agents[i] = ag.SnapshotInto(cp.Agents[i])
	}
	cp.Activations = cp.Activations[:0]
	if r.surface != nil {
		cp.Activations = append(cp.Activations, r.surface.Snapshot()...)
	}
	return cp
}

// restore overwrites a freshly constructed runner's mutable state from
// the checkpoint. The runner must have been built from a config that
// matches the checkpoint's identity (RunFrom validates this).
func (r *runner) restore(cp *Checkpoint) error {
	if err := r.env.Restore(cp.Env); err != nil {
		return err
	}
	if len(cp.Agents) != len(r.agents) {
		return fmt.Errorf("sim: restore: checkpoint has %d agents, run has %d", len(cp.Agents), len(r.agents))
	}
	for i, ag := range r.agents {
		ag.Restore(cp.Agents[i])
	}
	// An injection fork typically arms a surface the golden pass did not
	// (cp.Activations empty → the surface keeps zero counters, correct
	// for a fault that has not fired in the fault-free prefix); a
	// checkpointed faulty run restores its own counts positionally.
	if r.surface != nil {
		r.surface.Restore(cp.Activations)
	}
	r.imu.Restore(cp.IMU)
	r.jitter.Restore(cp.Jitter)
	r.applied = cp.Applied
	r.appliedBy = cp.AppliedBy
	r.lastFrame = cp.LastFrame
	r.egoSt = cp.EgoSt
	r.tr.Steps = append(r.tr.Steps[:0], cp.Trace.Steps...)
	r.tr.EndStep = cp.Trace.EndStep
	return nil
}

// RunFrom resumes an experiment from a checkpoint, executing only steps
// [cp.Step, end). The hard invariant — covered by the fork-equivalence
// tests — is that the result's trace is byte-identical to Run(cfg)
// executed from scratch, for any cfg whose fault does not act before
// cp.Step.
//
// cfg must agree with the checkpoint on scenario, mode, seed, overlap,
// and sensor noise; it may differ in fault configuration, which is what
// makes forking useful: one golden checkpointed pass serves every
// injection run whose fault activates after the checkpoint.
func RunFrom(cp *Checkpoint, cfg Config) (*Result, error) {
	switch {
	case cfg.Scenario == nil || cfg.Scenario.Name != cp.Scenario:
		return nil, fmt.Errorf("sim: RunFrom: scenario mismatch (checkpoint %q)", cp.Scenario)
	case cfg.Mode != cp.Mode:
		return nil, fmt.Errorf("sim: RunFrom: mode mismatch (checkpoint %v, config %v)", cp.Mode, cfg.Mode)
	case cfg.Seed != cp.Seed:
		return nil, fmt.Errorf("sim: RunFrom: seed mismatch (checkpoint %d, config %d)", cp.Seed, cfg.Seed)
	case cfg.Overlap != cp.Overlap:
		return nil, fmt.Errorf("sim: RunFrom: overlap mismatch (checkpoint %v, config %v)", cp.Overlap, cfg.Overlap)
	case cfg.SensorNoiseStd != cp.SensorNoiseStd:
		return nil, fmt.Errorf("sim: RunFrom: sensor noise mismatch (checkpoint %v, config %v)", cp.SensorNoiseStd, cfg.SensorNoiseStd)
	case cfg.Profile != nil:
		// A profile must observe the whole instruction stream; a fork
		// skips the prefix, so its profile would be silently partial.
		return nil, fmt.Errorf("sim: RunFrom: profiling requires a cold run")
	case cfg.Surface != nil && cfg.Surface.Start() >= 0 && cfg.Surface.Start() < cp.Step:
		// A surface fault whose window opens before the checkpoint would
		// have acted during the skipped prefix: the fork would silently
		// miss those activations. Step-decidable surfaces are validated
		// here; the instruction surface (Start() < 0) stays the caller's
		// responsibility (the campaign layer picks fork points from the
		// activation-step profile).
		return nil, fmt.Errorf("sim: RunFrom: surface fault starts at step %d before checkpoint step %d", cfg.Surface.Start(), cp.Step)
	}
	r := newRunner(cfg)
	if err := r.restore(cp); err != nil {
		return nil, err
	}
	return r.run(cp.Step), nil
}
