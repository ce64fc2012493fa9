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
