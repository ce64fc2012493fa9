package sim

import (
	"math"

	"diverseav/internal/obs"
	"diverseav/internal/trace"
)

// GoldenStream is the golden run's checkpoint stream plus its full
// trace: everything a forked injection run needs to track its own state
// against the golden execution and, on bit-exact reconvergence, graft
// the golden suffix instead of simulating it. The campaign executor
// builds one per transient campaign from its checkpointed golden pass
// and hands it to every fork via Config.Golden.
//
// The checkpoints are pooled runner state with the same lifetime rules
// as Result.Checkpoints: the stream must outlive every fork that tracks
// against it, and ReleaseCheckpoints must not run until all of them have
// finished.
type GoldenStream struct {
	Checkpoints []*Checkpoint
	Trace       *trace.Trace
}

// at returns the golden checkpoint taken at exactly this step, or nil.
// Checkpoints are in ascending step order, so a binary search keeps the
// per-cadence probe O(log n) even for dense streams.
func (g *GoldenStream) at(step int) *Checkpoint {
	lo, hi := 0, len(g.Checkpoints)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		cp := g.Checkpoints[mid]
		switch {
		case cp.Step == step:
			return cp
		case cp.Step < step:
			lo = mid + 1
		default:
			hi = mid - 1
		}
	}
	return nil
}

// ExitSplice is the one exit reason a run can report, re-exported from
// obs so sim callers need not know the ledger vocabulary. An empty
// ExecInfo.ExitReason means the run simulated to its natural end
// (completion, collision, or DUE).
const ExitSplice = obs.ExitSplice

// ExecInfo describes how a run was executed: the step range actually
// simulated and why simulation stopped, if it stopped short. It is
// execution-strategy metadata, NOT part of the experimental artifact —
// a spliced run's trace is byte-identical to the full-length run's, and
// the lab's wire format deliberately excludes ExecInfo (like
// Result.Checkpoints) so splicing can never leak into cached artifacts
// or spec keys.
type ExecInfo struct {
	// SimulatedFrom/SimulatedTo bound the steps the closed loop actually
	// executed: [SimulatedFrom, SimulatedTo). A cold full-length run
	// covers [0, EndStep+1); a spliced fork stops at the reconvergence
	// step and everything after it came from the golden suffix.
	SimulatedFrom int
	SimulatedTo   int
	// ExitReason is "" (ran to its natural end) or ExitSplice.
	ExitReason string
	// SplicedSteps counts the golden-suffix steps grafted onto the trace
	// (ExitSplice only).
	SplicedSteps int
}

// digest folds the runner's full mutable loop state into one FNV-64a
// hash: exactly the state a Checkpoint captures, in the same order the
// per-package DigestFNV hooks define. snapshot() stamps every golden
// checkpoint with this digest, and a fork recomputes it at each
// checkpoint cadence — equal digests are the cheap necessary condition
// for bit-exact reconvergence, always confirmed by stateEquals before a
// splice. The trace contributes only its cursor (see
// trace.CursorDigestFNV): recorded history does not influence future
// execution.
func (r *runner) digest() uint64 {
	h := uint64(14695981039346656037) // FNV-64 offset basis
	h = r.env.DigestFNV(h)
	h = r.imu.Snapshot().DigestFNV(h)
	h = r.jitter.Snapshot().DigestFNV(h)
	for _, ag := range r.agents {
		h = ag.DigestFNV(h)
	}
	h = digestWord(h, math.Float64bits(r.applied.Throttle))
	h = digestWord(h, math.Float64bits(r.applied.Brake))
	h = digestWord(h, math.Float64bits(r.applied.Steer))
	h = digestWord(h, uint64(int64(r.appliedBy)))
	h = digestWord(h, uint64(int64(r.lastFrame[0])))
	h = digestWord(h, uint64(int64(r.lastFrame[1])))
	h = digestWord(h, math.Float64bits(r.egoSt))
	return r.tr.CursorDigestFNV(h)
}

// digestWord is the package's copy of the lane-wise FNV-64a fold (see
// the twin in internal/vm).
func digestWord(h, w uint64) uint64 { return (h ^ w) * 1099511628211 }

// stateEquals is the full bit-exact comparison behind a digest match:
// every field digest() covers, compared by IEEE-754 bit pattern where
// floats are involved. A true return means the fork's future execution
// is the golden run's future execution — the loop is a deterministic
// function of this state plus immutable configuration — so the golden
// suffix may be grafted verbatim.
func (r *runner) stateEquals(cp *Checkpoint) bool {
	if r.appliedBy != cp.AppliedBy || r.lastFrame != cp.LastFrame {
		return false
	}
	if math.Float64bits(r.applied.Throttle) != math.Float64bits(cp.Applied.Throttle) ||
		math.Float64bits(r.applied.Brake) != math.Float64bits(cp.Applied.Brake) ||
		math.Float64bits(r.applied.Steer) != math.Float64bits(cp.Applied.Steer) ||
		math.Float64bits(r.egoSt) != math.Float64bits(cp.EgoSt) {
		return false
	}
	if len(r.tr.Steps) != len(cp.Trace.Steps) || r.tr.EndStep != cp.Trace.EndStep {
		return false
	}
	if r.imu.Snapshot() != cp.IMU || r.jitter.Snapshot() != cp.Jitter {
		return false
	}
	if !r.env.StateEquals(cp.Env) {
		return false
	}
	if len(cp.Agents) != len(r.agents) {
		return false
	}
	for i, ag := range r.agents {
		if !ag.StateEquals(cp.Agents[i]) {
			return false
		}
	}
	return true
}

// spliceSafe reports whether grafting the golden suffix at the top of
// `step` could be sound, before any state comparison: every pending
// fault source must be provably spent. The fault surface answers
// through Quiescent(step) — can the fault still act at any step >=
// step? For the instruction surface that is the fi.Injector probe (a
// transient that fired, or whose DynIndex the machine counter already
// passed; a permanent injector never is); for windowed surfaces it is
// the window having closed before `step` (an ECC-off memory flip's
// one-step window included). A StepHook (an observer the golden pass
// did not run) blocks splicing; a profiling run must observe its whole
// stream and never splices.
func (r *runner) spliceSafe(step int) bool {
	cfg := &r.cfg
	if cfg.Profile != nil || cfg.StepHook != nil {
		return false
	}
	if r.surface != nil && !r.surface.Quiescent(step) {
		return false
	}
	return true
}

// trySplice attempts a reconvergence splice at the top of `step` (the
// fork's state corresponds to the same instant a golden checkpoint
// captures). Returns nil when no golden checkpoint exists at this step,
// the fault is not yet quiescent, or the state differs. On success the
// returned Result carries the grafted trace and its ExecInfo; the run
// loop returns it immediately.
func (r *runner) trySplice(step, start int) *Result {
	cp := r.golden.at(step)
	if cp == nil || !r.spliceSafe(step) {
		return nil
	}
	// The stream must describe this exact run; a stream from another
	// identity can never legally splice (and would fail stateEquals).
	if cp.Scenario != r.cfg.Scenario.Name || cp.Mode != r.cfg.Mode || cp.Seed != r.cfg.Seed {
		return nil
	}
	if cp.Digest != r.digest() {
		return nil
	}
	if !r.stateEquals(cp) {
		// A true FNV collision: the digest matched but the state did not.
		// The full compare is the correctness gate — count it and keep
		// simulating.
		if in := instruments(); in != nil {
			in.spliceRejects.Inc()
		}
		return nil
	}
	return r.splice(step, start)
}

// splice grafts the golden suffix onto the fork's trace: the remaining
// steps, the end-of-run verdict inputs (Outcome, EndStep,
// CollisionStep), and the final instruction counts. All of these are
// deterministic functions of the state just proven bit-equal, so the
// grafted trace is byte-identical to what simulating the suffix would
// have produced (the splice-equivalence matrix test pins this). The
// fork keeps its own fault metadata and activation counts — they
// describe the prefix it really executed.
func (r *runner) splice(step, start int) *Result {
	g := r.golden.Trace
	tr := r.tr
	tr.Steps = append(tr.Steps, g.Steps[step:]...)
	tr.EndStep = g.EndStep
	tr.Outcome = g.Outcome
	tr.CollisionStep = g.CollisionStep
	tr.InstrCPU = g.InstrCPU
	tr.InstrGPU = g.InstrGPU
	res := &Result{
		Trace:       tr,
		Activations: surfaceActivations(r.surface),
		Checkpoints: r.checkpoints,
		Exec: ExecInfo{
			SimulatedFrom: start,
			SimulatedTo:   step,
			ExitReason:    ExitSplice,
			SplicedSteps:  len(g.Steps) - step,
		},
		// The tracer latched reconvergence at this very probe (same
		// bit-equal + quiescent condition), and the grafted trace is
		// byte-identical to the simulated one, so the record equals the
		// full-length run's.
		Propagation: r.buildPropagation(),
	}
	r.publishRun(res)
	return res
}
