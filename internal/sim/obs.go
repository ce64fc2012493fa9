package sim

import (
	"sync"

	"diverseav/internal/obs"
)

// simInstruments caches the sim's flight-recorder handles. Telemetry is
// aggregated once per finished run (publishRun), never per step, so the
// 40 Hz loop is untouched: when disabled the only cost is one atomic
// load at run end, and when enabled the per-run cost is a handful of
// counter adds.
type simInstruments struct {
	runs        *obs.Counter // finished runs (cold and forked)
	steps       *obs.Counter // simulation steps actually executed
	collisions  *obs.Counter // runs ending in a collision
	dues        *obs.Counter // runs ending in a platform-detected crash/hang
	faultRuns   *obs.Counter // runs with at least one injector wired
	activations *obs.Counter // fault-injector activations across all runs
	checkpoints *obs.Counter // checkpoints taken
	cpReuse     *obs.Counter // checkpoint buffers recycled from the pool
	instrFused  *obs.Counter // VM instructions in tier-1 fused kernels
	instrScalar *obs.Counter // VM instructions in the tier-0 scalar loop
	instrHooked *obs.Counter // VM instructions in the hooked loop

	// Divergence-aware execution.
	runsSpliced   *obs.Counter // runs that ended in a reconvergence splice
	stepsSpliced  *obs.Counter // golden-suffix steps grafted instead of simulated
	spliceRejects *obs.Counter // digest collisions rejected by the full compare

	// Lane groups sharing one fault-free prefix (RunLanesFrom).
	laneGroups   *obs.Counter // lane groups executed
	laneRuns     *obs.Counter // injection runs executed as lanes
	laneClones   *obs.Counter // never-activating lanes resolved as golden clones
	packSteps    *obs.Counter // fault-free pack steps simulated for lane prefixes
	packRestores *obs.Counter // pack jumps via golden-stream checkpoint restores
}

var (
	simInstOnce sync.Once
	simInst     simInstruments
)

func instruments() *simInstruments {
	if !obs.Enabled() {
		return nil
	}
	simInstOnce.Do(func() {
		simInst = simInstruments{
			runs:        obs.C("sim.runs"),
			steps:       obs.C("sim.steps"),
			collisions:  obs.C("sim.collisions"),
			dues:        obs.C("sim.dues"),
			faultRuns:   obs.C("sim.fault_runs"),
			activations: obs.C("fi.activations"),
			checkpoints: obs.C("sim.checkpoints"),
			cpReuse:     obs.C("sim.checkpoint_reuse"),
			instrFused:  obs.C("vm.instr_fused"),
			instrScalar: obs.C("vm.instr_scalar"),
			instrHooked: obs.C("vm.instr_hooked"),

			runsSpliced:   obs.C("sim.runs_spliced"),
			stepsSpliced:  obs.C("sim.steps_spliced"),
			spliceRejects: obs.C("sim.splice_rejects"),

			laneGroups:   obs.C("sim.lane_groups"),
			laneRuns:     obs.C("sim.lane_runs"),
			laneClones:   obs.C("sim.lane_clones"),
			packSteps:    obs.C("sim.pack_steps"),
			packRestores: obs.C("sim.pack_restores"),
		}
	})
	return &simInst
}

// publishRun aggregates one finished run into the flight recorder.
// Machines are private to the runner and freshly constructed by
// newRunner, so their tier counters hold exactly this run's (or, for a
// fork, this suffix's) instructions.
func (r *runner) publishRun(res *Result) {
	in := instruments()
	if in == nil {
		return
	}
	in.runs.Inc()
	// sim.steps counts steps the loop actually executed: a spliced run
	// contributes only its simulated range, which is exactly what makes
	// the campaign steps/s honest about splice wins.
	if executed := res.Exec.SimulatedTo - res.Exec.SimulatedFrom; executed > 0 {
		in.steps.Add(uint64(executed))
	}
	if res.Exec.ExitReason == ExitSplice {
		in.runsSpliced.Inc()
		in.stepsSpliced.Add(uint64(res.Exec.SplicedSteps))
	}
	if res.Trace.Collided() {
		in.collisions.Inc()
	}
	if res.Trace.DUE() {
		in.dues.Inc()
	}
	if r.surface != nil {
		in.faultRuns.Inc()
	}
	in.activations.Add(res.Activations)
	in.checkpoints.Add(uint64(len(res.Checkpoints)))
	for _, ag := range r.agents {
		fused, scalar, hooked := ag.Machine().TierCounts()
		in.instrFused.Add(fused)
		in.instrScalar.Add(scalar)
		in.instrHooked.Add(hooked)
	}
}
