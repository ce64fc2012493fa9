package sim

import (
	"strings"
	"testing"

	"diverseav/internal/agent"
	"diverseav/internal/fi"
	"diverseav/internal/fi/hallucinate"
	"diverseav/internal/fi/memfault"
	"diverseav/internal/fi/sensorfault"
)

// surfaceMatrixPlans is one plan per step-space surface kind (the ECC-off
// memory flip included), windows spread over
// the short scenario's 120 steps so early, mid and late detach points
// are all exercised.
func surfaceMatrixPlans() []fi.SurfacePlan {
	return []fi.SurfacePlan{
		sensorfault.Plan{Kind: sensorfault.BitFlip, Camera: 1, Step: 55, Duration: 25, Pixels: 96, Bit: 3, Seed: 99},
		sensorfault.Plan{Kind: sensorfault.ChannelDrop, Camera: 0, Step: 30, Duration: 30, Channel: 2},
		sensorfault.Plan{Kind: sensorfault.Freeze, Camera: 2, Step: 70, Duration: 20},
		hallucinate.Plan{Kind: hallucinate.Phantom, Agent: 0, Step: 40, Duration: 40, Dist: 8},
		hallucinate.Plan{Kind: hallucinate.Drop, Agent: 1, Step: 55, Duration: 30},
		hallucinate.Plan{Kind: hallucinate.LaneBias, Agent: 0, Step: 35, Duration: 50, Bias: 0.8},
		memfault.Plan{Agent: 1, Step: 60, Addr: agent.AddrState, Bit: 62},
	}
}

// TestSurfaceEquivalenceMatrix extends the execution-strategy hard
// invariant to the pluggable surfaces: for every surface kind, the cold
// run, the checkpoint fork (RunFrom at the latest checkpoint before the
// window) and the batched lane (RunLanesFrom detaching at the window
// start) must produce byte-identical traces and activation counts.
func TestSurfaceEquivalenceMatrix(t *testing.T) {
	sc := shortScenario()
	const seed = 3131
	const every = 25

	for _, mode := range []Mode{Single, RoundRobin, Duplicate} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			golden := Run(Config{Scenario: sc, Mode: mode, Seed: seed, CheckpointEvery: every})
			plans := surfaceMatrixPlans()

			cfgs := make([]Config, len(plans))
			detach := make([]int, len(plans))
			coldHash := make([]string, len(plans))
			coldAct := make([]uint64, len(plans))
			for i, plan := range plans {
				cfgs[i] = Config{Scenario: sc, Mode: mode, Seed: seed, Surface: plan}
				detach[i] = plan.Start()
				cold := Run(cfgs[i])
				coldHash[i] = hashTrace(t, cold.Trace)
				coldAct[i] = cold.Activations
				if cold.Activations == 0 {
					t.Errorf("plan %s: cold run never activated; the matrix row is vacuous", plan)
				}

				// Fork path: resume from the latest checkpoint preceding
				// the fault window.
				var cp *Checkpoint
				for _, c := range golden.Checkpoints {
					if c.Step <= plan.Start() && (cp == nil || c.Step > cp.Step) {
						cp = c
					}
				}
				if cp == nil {
					t.Fatalf("plan %s: no checkpoint before step %d", plan, plan.Start())
				}
				forked, err := RunFrom(cp, cfgs[i])
				if err != nil {
					t.Fatalf("plan %s: RunFrom: %v", plan, err)
				}
				if got := hashTrace(t, forked.Trace); got != coldHash[i] {
					t.Errorf("plan %s: forked trace diverged from cold run", plan)
				}
				if forked.Activations != coldAct[i] {
					t.Errorf("plan %s: forked activations %d, cold %d", plan, forked.Activations, coldAct[i])
				}
			}

			results, err := RunLanesFrom(nil, cfgs, detach)
			if err != nil {
				t.Fatal(err)
			}
			for i, plan := range plans {
				if got := hashTrace(t, results[i].Trace); got != coldHash[i] {
					t.Errorf("lane %s: trace diverged from cold run", plan)
				}
				if results[i].Activations != coldAct[i] {
					t.Errorf("lane %s: activations %d, cold %d", plan, results[i].Activations, coldAct[i])
				}
			}
		})
	}
}

// TestSurfaceSpliceBenign: a surface fault that perturbs nothing (zero
// lane bias) but still activates must reconverge and splice onto the
// golden tail once its window closes — the quiescence gate expressed
// against Surface.Quiescent, not the instruction injector.
func TestSurfaceSpliceBenign(t *testing.T) {
	sc := shortScenario()
	const seed = 3131
	res := Run(Config{Scenario: sc, Mode: RoundRobin, Seed: seed, CheckpointEvery: 25})
	stream := &GoldenStream{Checkpoints: res.Checkpoints, Trace: res.Trace}

	plan := hallucinate.Plan{Kind: hallucinate.LaneBias, Agent: 0, Step: 30, Duration: 10, Bias: 0}
	cold := Run(Config{Scenario: sc, Mode: RoundRobin, Seed: seed, Surface: plan})
	spliced := Run(Config{Scenario: sc, Mode: RoundRobin, Seed: seed, Surface: plan, Golden: stream})
	if spliced.Exec.ExitReason != ExitSplice {
		t.Errorf("benign surface fault exited %q at step %d; want a splice after quiescence",
			spliced.Exec.ExitReason, spliced.Exec.SimulatedTo)
	}
	if spliced.Activations == 0 {
		t.Error("benign fault never activated; the splice proves nothing")
	}
	if got, want := hashTrace(t, spliced.Trace), hashTrace(t, cold.Trace); got != want {
		t.Error("spliced trace diverged from cold run")
	}
}

// undecidablePlan is a step-space plan without a decidable start step.
type undecidablePlan struct{ sensorfault.Plan }

func (undecidablePlan) Start() int { return -1 }

// TestSurfaceValidation pins the argument contracts the surfaces added
// to RunFrom and RunLanesFrom.
func TestSurfaceValidation(t *testing.T) {
	sc := shortScenario()
	plan := sensorfault.Plan{Kind: sensorfault.BitFlip, Camera: 0, Step: 50, Duration: 10, Pixels: 4, Bit: 1, Seed: 7}
	ok := Config{Scenario: sc, Mode: RoundRobin, Seed: 1, Surface: plan}

	laneCases := []struct {
		name   string
		cfgs   []Config
		detach []int
		want   string
	}{
		{"undecidable-start", []Config{func() Config { c := ok; c.Surface = undecidablePlan{plan}; return c }()}, []int{0}, "no decidable start step"},
		{"clone-surface-lane", []Config{ok}, []int{-1}, "cannot be golden-cloned"},
		{"detach-after-start", []Config{ok}, []int{60}, "after surface start"},
	}
	for _, tc := range laneCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RunLanesFrom(nil, tc.cfgs, tc.detach)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
		})
	}

	// RunFrom must reject a checkpoint past the surface window start: a
	// frozen-frame fault (for one) must replay its capture step.
	golden := Run(Config{Scenario: sc, Mode: RoundRobin, Seed: 1, CheckpointEvery: 25})
	var late *Checkpoint
	for _, cp := range golden.Checkpoints {
		if cp.Step > plan.Start() && (late == nil || cp.Step > late.Step) {
			late = cp
		}
	}
	if late == nil {
		t.Fatal("no checkpoint past the fault window start")
	}
	if _, err := RunFrom(late, ok); err == nil || !strings.Contains(err.Error(), "before checkpoint step") {
		t.Fatalf("RunFrom past window start: error %v, want checkpoint rejection", err)
	}
}
