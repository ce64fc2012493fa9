package lab

import (
	"testing"

	"diverseav/internal/fi"
	"diverseav/internal/fi/instr"
	"diverseav/internal/fi/sensorfault"
	"diverseav/internal/sim"
	"diverseav/internal/vm"
)

// TestDetachStep pins the lane-grouping key: an instruction plan
// detaches at its profiled activation step, a step-space plan at its
// start, and a plan past the profiled stream never activates (-1).
func TestDetachStep(t *testing.T) {
	var prof fi.Profile
	// Agent 0 CPU cumulative counts: step 0 → 100, 1 → 200, ... 9 → 1000.
	for s := 1; s <= 10; s++ {
		prof.RecordStep(0, uint64(s*100), 0)
	}
	cases := []struct {
		dyn  uint64
		want int
	}{
		{50, 0},    // activates in step 0
		{350, 3},   // activates in step 3
		{650, 6},   // activates in step 6
		{1000, 9},  // activates in the last step
		{5000, -1}, // beyond the stream: never activates
	}
	for _, tc := range cases {
		plan := instr.Plan{P: fi.Plan{Target: vm.CPU, Model: fi.Transient, DynIndex: tc.dyn}}
		if got := detachStep(plan, &prof, 1); got != tc.want {
			t.Errorf("detachStep(dyn=%d) = %d, want %d", tc.dyn, got, tc.want)
		}
	}
	window := sensorfault.Plan{Step: 7, Duration: 5}
	if got := detachStep(window, nil, 1); got != 7 {
		t.Errorf("detachStep(step-space start 7) = %d, want 7", got)
	}
}

// TestForkedCampaignMatchesCold is the campaign-level hard invariant:
// the shared-prefix lane groups, checkpoint jumps and reconvergence
// splicing are pure wall-clock optimizations. A transient campaign on
// the default path must produce, run for run, byte-identical traces and
// activation counts to the same spec with forking disabled entirely
// (every run cold from step 0). CheckpointEvery is not part of an
// untraced key, so each variant runs in a fresh lab.
func TestForkedCampaignMatchesCold(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	sc := shortLeadSlowdown()
	sizes := Sizes{Transient: 8, PermReps: 1, PermStride: 11, Golden: 2, Training: 1}
	run := func(spec CampaignSpec) *Campaign {
		l := New()
		l.RegisterScenario(sc)
		return l.Campaign(spec)
	}
	for _, mode := range []sim.Mode{sim.Single, sim.RoundRobin, sim.Duplicate} {
		for _, target := range []vm.Device{vm.CPU, vm.GPU} {
			t.Run(mode.String()+"/"+target.String(), func(t *testing.T) {
				base := CampaignSpec{Scenario: sc.Name, Mode: mode, Target: target, Model: fi.Transient, Sizes: sizes, Seed: 33}
				cold := base
				cold.CheckpointEvery = -1
				ref, c := run(cold), run(base)
				if len(c.Runs) != len(ref.Runs) {
					t.Fatalf("run counts differ: %d vs %d", len(c.Runs), len(ref.Runs))
				}
				for i, r := range c.Runs {
					want := ref.Runs[i]
					if r.Plan != want.Plan {
						t.Fatalf("run %d: plans differ", i)
					}
					if got, exp := traceHash(t, r.Result.Trace), traceHash(t, want.Result.Trace); got != exp {
						t.Errorf("run %d (%s): trace %s != cold trace %s", i, r.Plan, got, exp)
					}
					if r.Result.Activations != want.Result.Activations {
						t.Errorf("run %d: activations %d != cold %d", i, r.Result.Activations, want.Result.Activations)
					}
				}
			})
		}
	}
}
