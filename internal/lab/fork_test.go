package lab

import (
	"testing"

	"diverseav/internal/fi"
	"diverseav/internal/fi/instr"
	"diverseav/internal/fi/sensorfault"
	"diverseav/internal/sim"
	"diverseav/internal/vm"
)

// TestForkPointSelection pins the bucketing rule: latest checkpoint at
// or before the detach step (an instruction plan's profiled activation
// step, a step-space plan's start); latest checkpoint overall for plans
// that never activate.
func TestForkPointSelection(t *testing.T) {
	var prof fi.Profile
	// Agent 0 CPU cumulative counts: step 0 → 100, 1 → 200, ... 9 → 1000.
	for s := 1; s <= 10; s++ {
		prof.RecordStep(0, uint64(s*100), 0)
	}
	cps := []*sim.Checkpoint{{Step: 3}, {Step: 6}, {Step: 9}}

	cases := []struct {
		dyn  uint64
		want int // expected checkpoint step; -1 = no checkpoint usable
	}{
		{50, -1},  // activates in step 0, before the first checkpoint
		{350, 3},  // activates in step 3
		{650, 6},  // activates in step 6
		{1000, 9}, // activates in the last step
		{5000, 9}, // beyond the stream: never activates, use the latest
	}
	for _, tc := range cases {
		plan := instr.Plan{P: fi.Plan{Target: vm.CPU, Model: fi.Transient, DynIndex: tc.dyn}}
		cp := forkPoint(cps, detachStep(plan, &prof, 1))
		got := -1
		if cp != nil {
			got = cp.Step
		}
		if got != tc.want {
			t.Errorf("forkPoint(dyn=%d) = step %d, want %d", tc.dyn, got, tc.want)
		}
	}
	if cp := forkPoint(nil, 3); cp != nil {
		t.Error("forkPoint with no checkpoints returned one")
	}
	window := sensorfault.Plan{Step: 7, Duration: 5}
	if cp := forkPoint(cps, detachStep(window, nil, 1)); cp == nil || cp.Step != 6 {
		t.Errorf("forkPoint(step-space start 7) = %v, want the step-6 checkpoint", cp)
	}
}

// TestForkedCampaignMatchesCold is the campaign-level hard invariant:
// fork execution, lane batching and reconvergence splicing are pure
// wall-clock optimizations. A transient campaign under the default
// strategy (lane groups) must produce, run for run, byte-identical
// traces and activation counts to the same spec run solo with splicing,
// with splicing disabled (forked full-length runs), and with forking
// disabled entirely (every run cold from step 0). The strategy fields
// are not part of the key, so each variant runs in a fresh lab.
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
				soloSplice := base
				soloSplice.LaneWidth = -1
				noSplice := base
				noSplice.DisableSplice = true
				ref := run(cold)
				for _, v := range []struct {
					name string
					spec CampaignSpec
				}{{"batch", base}, {"solo-splice", soloSplice}, {"no-splice", noSplice}} {
					c := run(v.spec)
					if len(c.Runs) != len(ref.Runs) {
						t.Fatalf("%s: run counts differ: %d vs %d", v.name, len(c.Runs), len(ref.Runs))
					}
					for i, r := range c.Runs {
						want := ref.Runs[i]
						if r.Plan != want.Plan {
							t.Fatalf("%s: run %d: plans differ", v.name, i)
						}
						if got, exp := traceHash(t, r.Result.Trace), traceHash(t, want.Result.Trace); got != exp {
							t.Errorf("%s: run %d (%s): trace %s != cold trace %s", v.name, i, r.Plan, got, exp)
						}
						if r.Result.Activations != want.Result.Activations {
							t.Errorf("%s: run %d: activations %d != cold %d", v.name, i, r.Result.Activations, want.Result.Activations)
						}
					}
				}
			})
		}
	}
}
