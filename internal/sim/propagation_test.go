package sim

import (
	"reflect"
	"testing"

	"diverseav/internal/fi"
	"diverseav/internal/fi/hallucinate"
	"diverseav/internal/fi/sensorfault"
	"diverseav/internal/obs"
)

// tracedGolden builds the golden stream a propagation test forks
// against: checkpoints every 10 steps so the probe cadence is tighter
// than any surface window in these tests.
func tracedGolden(t *testing.T, mode Mode, seed uint64) *GoldenStream {
	t.Helper()
	res := Run(Config{Scenario: shortScenario(), Mode: mode, Seed: seed, CheckpointEvery: 10})
	return &GoldenStream{Checkpoints: res.Checkpoints, Trace: res.Trace}
}

// TestPropagationRecord: a windowed sensor fault that perturbs the run
// must produce a record whose attribution sits inside the activation
// window (plus one probe cadence), with an activation step inside the
// window, internally consistent subsystem hits and a sane deviation
// trajectory.
func TestPropagationRecord(t *testing.T) {
	sc := shortScenario()
	const seed = 3131
	stream := tracedGolden(t, RoundRobin, seed)
	plan := sensorfault.Plan{Kind: sensorfault.BitFlip, Camera: 1, Step: 30, Duration: 30, Pixels: 128, Bit: 3, Seed: 99}
	res := Run(Config{Scenario: sc, Mode: RoundRobin, Seed: seed,
		Surface: plan, Golden: stream, Propagation: true})
	if res.Activations == 0 {
		t.Fatal("plan never activated; the test is vacuous")
	}
	p := res.Propagation
	if p == nil {
		t.Fatal("activated, perturbing run carries no propagation record")
	}
	window := fi.PlanWindow(plan)
	if len(window) != 2 {
		t.Fatalf("sensorfault plan is not windowed: %v", window)
	}
	const every = 10
	if p.Step < window[0] || p.Step > window[1]+every {
		t.Errorf("first divergence at step %d, want within window %v + cadence %d", p.Step, window, every)
	}
	if p.ActivationStep < window[0] || p.ActivationStep >= window[1] {
		t.Errorf("activation at step %d, want inside window %v", p.ActivationStep, window)
	}
	if p.ActivationStep > p.Step {
		t.Errorf("activation step %d after divergence step %d", p.ActivationStep, p.Step)
	}
	if len(p.Subsystems) == 0 {
		t.Fatal("record carries no subsystem hits")
	}
	if h := p.Subsystems[0]; h.Subsystem != p.Subsystem || h.Step != p.Step {
		t.Errorf("first hit %+v disagrees with attribution %s@%d", h, p.Subsystem, p.Step)
	}
	for i := 1; i < len(p.Subsystems); i++ {
		if p.Subsystems[i].Step < p.Subsystems[i-1].Step {
			t.Errorf("subsystem hits out of step order: %+v", p.Subsystems)
		}
	}
	switch p.Boundary() {
	case obs.BoundaryState, obs.BoundaryControl, obs.BoundaryTrajectory:
	default:
		t.Errorf("unknown boundary %q", p.Boundary())
	}
	if len(p.Samples) == 0 {
		t.Error("record carries no deviation samples")
	}
	for i, s := range p.Samples {
		if s.Step < p.Step || s.Lateral < 0 || s.Heading < 0 {
			t.Errorf("sample %d malformed: %+v", i, s)
		}
		if i > 0 && s.Step <= p.Samples[i-1].Step {
			t.Errorf("samples out of step order at %d: %+v", i, p.Samples)
		}
	}
	if p.TrajStep >= 0 && p.MaxLateral == 0 {
		t.Error("trajectory diverged but max lateral deviation is zero")
	}
}

// TestPropagationTraceInvariance is the tentpole's zero-interference
// guarantee at the sim level: arming the tracer must not change one
// byte of the recorded trace, the activation count, or the execution
// metadata — and tracing off (or a fault-free run) must produce no
// record.
func TestPropagationTraceInvariance(t *testing.T) {
	sc := shortScenario()
	const seed = 3131
	stream := tracedGolden(t, RoundRobin, seed)
	for _, plan := range surfaceMatrixPlans() {
		cfg := Config{Scenario: sc, Mode: RoundRobin, Seed: seed, Surface: plan, Golden: stream}
		off := Run(cfg)
		cfg.Propagation = true
		on := Run(cfg)
		if got, want := hashTrace(t, on.Trace), hashTrace(t, off.Trace); got != want {
			t.Errorf("plan %s: tracing changed the trace", plan)
		}
		if on.Activations != off.Activations {
			t.Errorf("plan %s: tracing changed activations (%d vs %d)", plan, on.Activations, off.Activations)
		}
		if on.Exec != off.Exec {
			t.Errorf("plan %s: tracing changed exec info (%+v vs %+v)", plan, on.Exec, off.Exec)
		}
		if off.Propagation != nil {
			t.Errorf("plan %s: untraced run grew a record", plan)
		}
	}
	// Fault-free: the tracer does not arm without an injection.
	clean := Run(Config{Scenario: sc, Mode: RoundRobin, Seed: seed, Golden: stream, Propagation: true})
	if clean.Propagation != nil {
		t.Errorf("fault-free traced run grew a record: %+v", clean.Propagation)
	}
}

// TestPropagationSpliceInvariance: the record must be identical whether
// reconvergence splicing is on or off — the reconverged latch uses the
// exact splice precondition, so the probe stream a record is built from
// is the same under either strategy.
func TestPropagationSpliceInvariance(t *testing.T) {
	sc := shortScenario()
	const seed = 3131
	stream := tracedGolden(t, RoundRobin, seed)
	recorded := 0
	for _, plan := range surfaceMatrixPlans() {
		cfg := Config{Scenario: sc, Mode: RoundRobin, Seed: seed,
			Surface: plan, Golden: stream, Propagation: true}
		spliced := Run(cfg)
		cfg.DisableSplice = true
		full := Run(cfg)
		if got, want := hashTrace(t, spliced.Trace), hashTrace(t, full.Trace); got != want {
			t.Errorf("plan %s: splice changed the trace", plan)
		}
		if !reflect.DeepEqual(spliced.Propagation, full.Propagation) {
			t.Errorf("plan %s: record differs across splice strategies:\nspliced: %+v\nfull:    %+v",
				plan, spliced.Propagation, full.Propagation)
		}
		if spliced.Propagation != nil {
			recorded++
		}
	}
	if recorded == 0 {
		t.Error("no plan produced a record; the invariance matrix is vacuous")
	}
}

// TestPropagationLaneEquivalence extends the lane-equivalence hard
// invariant to the tracer: a traced lane's record must equal the traced
// solo run's, field for field.
func TestPropagationLaneEquivalence(t *testing.T) {
	sc := shortScenario()
	const seed = 3131
	stream := tracedGolden(t, RoundRobin, seed)
	plans := []fi.SurfacePlan{
		sensorfault.Plan{Kind: sensorfault.BitFlip, Camera: 1, Step: 30, Duration: 30, Pixels: 128, Bit: 3, Seed: 99},
		hallucinate.Plan{Kind: hallucinate.Phantom, Agent: 0, Step: 40, Duration: 40, Dist: 8},
		hallucinate.Plan{Kind: hallucinate.LaneBias, Agent: 0, Step: 35, Duration: 50, Bias: 0.8},
	}
	cfgs := make([]Config, len(plans))
	detach := make([]int, len(plans))
	solo := make([]*Result, len(plans))
	for i, plan := range plans {
		cfgs[i] = Config{Scenario: sc, Mode: RoundRobin, Seed: seed,
			Surface: plan, Golden: stream, Propagation: true}
		detach[i] = plan.Start()
		solo[i] = Run(cfgs[i])
	}
	lanes, err := RunLanesFrom(cfgs, detach)
	if err != nil {
		t.Fatal(err)
	}
	recorded := 0
	for i, plan := range plans {
		if got, want := hashTrace(t, lanes[i].Trace), hashTrace(t, solo[i].Trace); got != want {
			t.Errorf("lane %s: trace diverged from solo run", plan)
		}
		if !reflect.DeepEqual(lanes[i].Propagation, solo[i].Propagation) {
			t.Errorf("lane %s: record differs from solo run:\nlane: %+v\nsolo: %+v",
				plan, lanes[i].Propagation, solo[i].Propagation)
		}
		if solo[i].Propagation != nil {
			recorded++
		}
	}
	if recorded == 0 {
		t.Error("no lane produced a record; the equivalence matrix is vacuous")
	}
}
