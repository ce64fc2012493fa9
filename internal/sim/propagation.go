package sim

import (
	"math"
	"sort"

	"diverseav/internal/geom"
	"diverseav/internal/obs"
	"diverseav/internal/trace"
)

// Propagation is one injected run's fault-propagation record: where the
// corruption first became visible against the golden execution, how
// fast it crossed each boundary, and how far the behavior deviated
// while it lasted. It is produced by the propagation tracer
// (Config.Propagation), a read-only probe over the same golden
// checkpoint stream the reconvergence splice uses — the tracer never
// influences splice/fork/lane decisions, so traced and untraced runs
// produce byte-identical traces (the trace-invariance tests pin this).
// Nil on runs whose fault never perturbed any probed state.
type Propagation struct {
	// Subsystem names the first subsystem observed diverged (an
	// obs.Subsystem* constant); Step is the probe step that observed it.
	// Probes fire at golden checkpoint cadence, so Step is an upper
	// bound on the true first-divergence step, tight to one cadence.
	Subsystem string
	Step      int
	// ActivationStep is the first step at the end of which the fault
	// surface reported activations (-1: never observed to activate).
	ActivationStep int
	// Reconverged reports the run was observed bit-exactly back on the
	// golden execution with its fault quiescent — the same condition
	// under which the splice path grafts, so the flag is identical with
	// splicing on or off.
	Reconverged bool
	// TrajStep is the first step whose recorded trace entry differs
	// from the golden run's (-1: the recorded trajectory never
	// diverged).
	TrajStep int
	// Deviation aggregates over the run's recorded trace: max
	// positional deviation from the golden trajectory (meters), min
	// closest-vehicle-in-path distance and min time-to-collision
	// (<0: undefined).
	MaxLateral float64
	MinCVIP    float64
	MinTTC     float64
	// Subsystems lists every subsystem that ever diverged with the probe
	// step that first observed it, ordered by step then attribution
	// order. A slice, not a map: the record rides the campaign artifact
	// wire format, whose bytes must encode deterministically.
	Subsystems []SubsystemHit
	// Samples is the deviation trajectory at probe cadence while the
	// run was diverged.
	Samples []obs.PropSample
}

// SubsystemHit is one subsystem's first observed divergence.
type SubsystemHit struct {
	Subsystem string
	Step      int
}

// Boundary classifies the deepest boundary the corruption crossed: the
// recorded trajectory (the vehicle moved differently), the control
// latches (actuation was perturbed but the trajectory held), or
// internal subsystem state only.
func (p *Propagation) Boundary() string {
	if p.TrajStep >= 0 {
		return obs.BoundaryTrajectory
	}
	for _, h := range p.Subsystems {
		if h.Subsystem == obs.SubsystemCtrl {
			return obs.BoundaryControl
		}
	}
	return obs.BoundaryState
}

// propSubsystemOrder fixes the attribution tie-break when several
// subsystems are first seen diverged at the same probe: the agent
// fabrics (where instruction and sensor faults manifest first), then
// the control latches they feed, then the world they steer, then the
// sensor streams and the trace cursor.
var propSubsystemOrder = []string{
	obs.SubsystemAgent0, obs.SubsystemAgent1, obs.SubsystemCtrl,
	obs.SubsystemEnv, obs.SubsystemIMU, obs.SubsystemJitter, obs.SubsystemTrace,
}

// maxPropSamples bounds one record's deviation trajectory; a run that
// stays diverged past the cap keeps its aggregates exact (they are
// computed over the full trace at finish) and simply stops appending
// samples.
const maxPropSamples = 256

// propTracker is the runner's live tracing state. All of it is
// observation: nothing the tracker records feeds back into execution.
type propTracker struct {
	firstSub  string
	firstStep int // -1 until the first diverged probe
	actStep   int // -1 until activations observed
	// reconverged/done latch the first all-equal-and-quiescent probe
	// after a divergence: from that state the run's future execution is
	// the golden execution (the splice argument), so probing stops —
	// which also makes the record invariant to whether the run then
	// splices or keeps simulating.
	reconverged bool
	done        bool
	subs        map[string]int
	samples     []obs.PropSample
}

// probeProp is the propagation probe, run at the top of each step for
// which the golden stream holds a checkpoint (beside — and independent
// of — the splice probe; it fires under DisableSplice too). Read-only:
// it compares the runner's live state against the golden checkpoint's
// stored state and records attribution, never touching either.
func (r *runner) probeProp(step int) {
	t := r.prop
	if t == nil || t.done || step <= r.start {
		return
	}
	cp := r.golden.at(step)
	if cp == nil || cp.Scenario != r.cfg.Scenario.Name || cp.Mode != r.cfg.Mode || cp.Seed != r.cfg.Seed {
		return
	}
	if r.digest() == cp.Digest {
		// Bit-equal with the golden state (the digest is the same
		// necessary condition the splice path starts from). If the run
		// had diverged and the fault is now provably spent, it is back on
		// the golden execution for good.
		if t.firstStep >= 0 && r.spliceSafe(step) {
			t.reconverged = true
			t.done = true
		}
		return
	}
	for _, name := range propSubsystemOrder {
		if _, seen := t.subs[name]; seen {
			continue
		}
		if !r.subsystemDiverged(name, cp) {
			continue
		}
		if t.subs == nil {
			t.subs = make(map[string]int, 4)
		}
		t.subs[name] = step
		if t.firstStep < 0 {
			t.firstStep, t.firstSub = step, name
		}
	}
	if t.firstStep < 0 {
		// Digest mismatch with every probed partition equal cannot
		// happen (the digest folds exactly these partitions); tolerate it
		// rather than fabricate attribution.
		return
	}
	r.propSample(step, cp)
}

// subsystemDiverged compares one state partition against the golden
// checkpoint, using the same equality primitives stateEquals is built
// from.
func (r *runner) subsystemDiverged(name string, cp *Checkpoint) bool {
	switch name {
	case obs.SubsystemAgent0:
		return len(cp.Agents) > 0 && !r.agents[0].StateEquals(cp.Agents[0])
	case obs.SubsystemAgent1:
		return len(r.agents) > 1 && len(cp.Agents) > 1 && !r.agents[1].StateEquals(cp.Agents[1])
	case obs.SubsystemCtrl:
		return r.appliedBy != cp.AppliedBy || r.lastFrame != cp.LastFrame ||
			math.Float64bits(r.applied.Throttle) != math.Float64bits(cp.Applied.Throttle) ||
			math.Float64bits(r.applied.Brake) != math.Float64bits(cp.Applied.Brake) ||
			math.Float64bits(r.applied.Steer) != math.Float64bits(cp.Applied.Steer) ||
			math.Float64bits(r.egoSt) != math.Float64bits(cp.EgoSt)
	case obs.SubsystemEnv:
		return !r.env.StateEquals(cp.Env)
	case obs.SubsystemIMU:
		return r.imu.Snapshot() != cp.IMU
	case obs.SubsystemJitter:
		return r.jitter.Snapshot() != cp.Jitter
	case obs.SubsystemTrace:
		return len(r.tr.Steps) != len(cp.Trace.Steps) || r.tr.EndStep != cp.Trace.EndStep
	}
	return false
}

// propSample appends one deviation-trajectory point, read from state
// the runner already holds: the live ego pose against the golden
// checkpoint's, and the run's own CVIP/TTC from its last recorded step.
func (r *runner) propSample(step int, cp *Checkpoint) {
	t := r.prop
	if len(t.samples) >= maxPropSamples {
		return
	}
	ego := r.env.Ego.State
	s := obs.PropSample{
		Step:    step,
		Lateral: ego.Pose.Pos.Dist(cp.Env.Ego.Pose.Pos),
		Heading: math.Abs(wrapPi(ego.Pose.Yaw - cp.Env.Ego.Pose.Yaw)),
		CVIP:    -1,
		TTC:     -1,
	}
	if n := len(r.tr.Steps); n > 0 {
		last := &r.tr.Steps[n-1]
		s.CVIP = last.CVIP
		s.TTC = propTTC(last.CVIP, last.V)
	}
	t.samples = append(t.samples, s)
}

// propActivationPoll latches the first step at the end of which the
// fault surface had activated. Called from stepFinish, once per step,
// after the agent phase.
func (r *runner) propActivationPoll(step int) {
	if t := r.prop; t != nil && t.actStep < 0 && r.surface != nil && r.surface.Activations() > 0 {
		t.actStep = step
	}
}

// buildPropagation assembles the run's record at finish time. The
// trajectory aggregates are computed over the final recorded trace —
// which is byte-identical whether the run spliced or simulated to the
// end — so the record is invariant to execution strategy.
func (r *runner) buildPropagation() *Propagation {
	t := r.prop
	if t == nil || t.firstStep < 0 {
		return nil
	}
	p := &Propagation{
		Subsystem:      t.firstSub,
		Step:           t.firstStep,
		ActivationStep: t.actStep,
		Reconverged:    t.reconverged,
		TrajStep:       -1,
		MinCVIP:        -1,
		MinTTC:         -1,
		Samples:        t.samples,
	}
	// The attribution-order walk below plus the stable sort gives the
	// hits a fully deterministic order: by first-seen step, ties in
	// attribution order.
	for _, name := range propSubsystemOrder {
		if step, ok := t.subs[name]; ok {
			p.Subsystems = append(p.Subsystems, SubsystemHit{Subsystem: name, Step: step})
		}
	}
	sort.SliceStable(p.Subsystems, func(a, b int) bool {
		return p.Subsystems[a].Step < p.Subsystems[b].Step
	})
	own := r.tr.Steps
	var g []trace.Step
	if r.golden != nil && r.golden.Trace != nil {
		g = r.golden.Trace.Steps
	}
	n := len(own)
	if len(g) < n {
		n = len(g)
	}
	for i := 0; i < n; i++ {
		if p.TrajStep < 0 && own[i] != g[i] {
			p.TrajStep = i
		}
		d := geom.V2(own[i].X, own[i].Y).Dist(geom.V2(g[i].X, g[i].Y))
		if d > p.MaxLateral {
			p.MaxLateral = d
		}
	}
	if p.TrajStep < 0 && len(own) != len(g) {
		p.TrajStep = n
	}
	for i := range own {
		if c := own[i].CVIP; c >= 0 && (p.MinCVIP < 0 || c < p.MinCVIP) {
			p.MinCVIP = c
		}
		if ttc := propTTC(own[i].CVIP, own[i].V); ttc >= 0 && (p.MinTTC < 0 || ttc < p.MinTTC) {
			p.MinTTC = ttc
		}
	}
	return p
}

// propTTC is the simple distance-over-closing-speed time to collision
// the runner can compute from its own recorded state: CVIP over ego
// speed. Undefined (-1) with no vehicle in path or a near-stationary
// ego.
func propTTC(cvip, v float64) float64 {
	if cvip < 0 || v <= 0.1 {
		return -1
	}
	return cvip / v
}

// wrapPi wraps an angle difference into (-π, π].
func wrapPi(a float64) float64 {
	for a > math.Pi {
		a -= 2 * math.Pi
	}
	for a <= -math.Pi {
		a += 2 * math.Pi
	}
	return a
}
