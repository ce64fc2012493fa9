package sim

import (
	"testing"

	"diverseav/internal/fi"
	"diverseav/internal/fi/instr"
	"diverseav/internal/scenario"
	"diverseav/internal/sensor"
	"diverseav/internal/vm"
)

// noopStepHook observes nothing; setting it makes a run render whole
// frames instead of the agents' sample grids.
func noopStepHook(int, *scenario.Env, *[3]sensor.Frame) {}

// TestSampledRenderMatchesFullRender pins the sample-grid rasterizer end
// to end: for every agent configuration and every fault surface, a run
// that renders only the agents' grids produces the byte-identical trace
// and activation count of the same run rendering whole frames (forced by
// a no-op StepHook), whether it runs cold, forks from a checkpoint
// (RunFrom, with and without the hook) or runs as a lane
// (RunLanesFrom, which admits no StepHook).
func TestSampledRenderMatchesFullRender(t *testing.T) {
	sc := shortScenario()
	const seed = 2718
	const every = 25
	modes := []struct {
		name    string
		mode    Mode
		overlap float64
	}{
		{"single", Single, 0},
		{"roundrobin", RoundRobin, 0},
		{"roundrobin-overlap", RoundRobin, 0.25},
		{"duplicate", Duplicate, 0},
	}
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			var prof fi.Profile
			golden := Run(Config{Scenario: sc, Mode: m.mode, Overlap: m.overlap, Seed: seed, Profile: &prof, CheckpointEvery: every})
			stream := &GoldenStream{Checkpoints: golden.Checkpoints, Trace: golden.Trace}

			gpuDyn := prof.InstrCount[vm.GPU] / 2
			gpuStep, ok := prof.ActivationStep(0, vm.GPU, gpuDyn)
			if !ok {
				t.Fatalf("GPU dynamic index %d never activates", gpuDyn)
			}
			plans := append([]fi.SurfacePlan{
				instr.Plan{P: fi.Plan{Target: vm.GPU, Model: fi.Transient, DynIndex: gpuDyn, Bit: 41}},
			}, surfaceMatrixPlans()...)
			detach := make([]int, len(plans))
			detach[0] = gpuStep
			for i := 1; i < len(plans); i++ {
				detach[i] = plans[i].Start()
			}

			base := Config{Scenario: sc, Mode: m.mode, Overlap: m.overlap, Seed: seed}
			check := func(what string, want, got *Result) {
				t.Helper()
				if hashTrace(t, got.Trace) != hashTrace(t, want.Trace) {
					t.Errorf("%s: trace differs from the full-frame run", what)
				}
				if got.Activations != want.Activations {
					t.Errorf("%s: activations %d, full-frame run %d", what, got.Activations, want.Activations)
				}
			}

			full := base
			full.StepHook = noopStepHook
			check("fault-free cold", Run(full), Run(base))

			refs := make([]*Result, len(plans))
			lanes := make([]Config, len(plans))
			for i, plan := range plans {
				cfg, fullCfg := base, full
				cfg.Surface, fullCfg.Surface = plan, plan
				refs[i] = Run(fullCfg)
				if refs[i].Activations == 0 {
					t.Errorf("plan %s: never activated; the row is vacuous", plan)
				}
				check(plan.String()+" cold", refs[i], Run(cfg))

				var cp *Checkpoint
				for _, c := range golden.Checkpoints {
					if c.Step <= detach[i] {
						cp = c
					}
				}
				if cp == nil {
					t.Fatalf("plan %s: no checkpoint at or before step %d", plan, detach[i])
				}
				for _, c := range []Config{cfg, fullCfg} {
					forked, err := RunFrom(cp, c)
					if err != nil {
						t.Fatalf("plan %s: RunFrom: %v", plan, err)
					}
					check(plan.String()+" fork", refs[i], forked)
				}

				lanes[i] = cfg
				lanes[i].Golden = stream
			}
			results, err := RunLanesFrom(lanes, detach)
			if err != nil {
				t.Fatal(err)
			}
			for i, plan := range plans {
				check(plan.String()+" lane", refs[i], results[i])
			}
		})
	}
}
