package hallucinate

import (
	"reflect"
	"testing"

	"diverseav/internal/agent"
	"diverseav/internal/fi"
	"diverseav/internal/vm"
)

// TestPlansDeterministicInRange: for both models a seed redraws its plans,
// another seed draws others, and every window lies inside [0, steps).
func TestPlansDeterministicInRange(t *testing.T) {
	const steps, agents = 200, 2
	for _, model := range []fi.Model{fi.Transient, fi.Permanent} {
		draw := func(seed uint64) []fi.SurfacePlan {
			return planner{}.Plans(seed, nil, vm.GPU, model, steps, agents, 12, 1)
		}
		plans := draw(7)
		if !reflect.DeepEqual(plans, draw(7)) || reflect.DeepEqual(plans, draw(8)) {
			t.Errorf("%v: seed 7 must redraw its plans and seed 8 must draw others", model)
		}
		for _, sp := range plans {
			p := sp.(Plan)
			if p.Step < 0 || p.End() <= p.Step || p.End() > steps || p.Agent < 0 || p.Agent >= agents {
				t.Errorf("%v: %v outside [0 %d) or agents [0 %d)", model, p, steps, agents)
			}
		}
	}
}

// TestPerturbsOnlyInsideWindow: a drop plan on agent 3 of two changes only
// agent 1's output at steps in [Step, End), is Quiescent from End on, and
// its activation counter round-trips through Snapshot/Restore.
func TestPerturbsOnlyInsideWindow(t *testing.T) {
	s := Plan{Kind: Drop, Agent: 3, Step: 3, Duration: 4}.New().(*surface)
	s.agents = 2
	for step := 0; step < 10; step++ {
		if got, want := s.Quiescent(step), step >= 7; got != want {
			t.Errorf("Quiescent(%d) = %v, want %v", step, got, want)
		}
		for id := 0; id < 2; id++ {
			out := agent.Output{ObstacleDist: 10}
			s.perturb(id, step, &agent.Input{}, &out)
			if got, want := out.ObstacleDist != 10, id == 1 && step >= 3 && step < 7; got != want {
				t.Errorf("step %d agent %d: perturbed %v, want %v", step, id, got, want)
			}
		}
	}
	snap, n := s.Snapshot(), s.Activations()
	s.Restore(nil)
	zero := s.Activations()
	s.Restore(snap)
	if n != 4 || zero != 0 || s.Activations() != 4 {
		t.Errorf("activations %d, %d after Restore(nil), %d after Restore(snapshot); want 4, 0, 4", n, zero, s.Activations())
	}
}
