package sensorfault

import (
	"bytes"
	"reflect"
	"testing"

	"diverseav/internal/fi"
	"diverseav/internal/sensor"
	"diverseav/internal/vm"
)

// TestPlansDeterministicInRange: for both models a seed redraws its plans,
// another seed draws others, and every window lies inside [0, steps).
func TestPlansDeterministicInRange(t *testing.T) {
	const steps = 200
	for _, model := range []fi.Model{fi.Transient, fi.Permanent} {
		draw := func(seed uint64) []fi.SurfacePlan {
			return planner{}.Plans(seed, nil, vm.GPU, model, steps, 2, 12, 1)
		}
		plans := draw(7)
		if !reflect.DeepEqual(plans, draw(7)) || reflect.DeepEqual(plans, draw(8)) {
			t.Errorf("%v: seed 7 must redraw its plans and seed 8 must draw others", model)
		}
		for _, p := range plans {
			if w := fi.PlanWindow(p); w[0] < 0 || w[1] <= w[0] || w[1] > steps {
				t.Errorf("%v: %v has window %v, outside [0 %d)", model, p, w, steps)
			}
		}
	}
}

// TestCorruptsOnlyInsideWindow: a bit-flip plan changes only camera 4 mod
// 3 at steps in [Step, End), is Quiescent from End on, and its activation
// counter round-trips through Snapshot/Restore.
func TestCorruptsOnlyInsideWindow(t *testing.T) {
	s := Plan{Kind: BitFlip, Camera: 4, Step: 3, Duration: 4, Pixels: 8, Bit: 2, Seed: 9}.New().(*surface)
	for step := 0; step < 10; step++ {
		if got, want := s.Quiescent(step), step >= 7; got != want {
			t.Errorf("Quiescent(%d) = %v, want %v", step, got, want)
		}
		frames := [3]sensor.Frame{sensor.NewFrame(), sensor.NewFrame(), sensor.NewFrame()}
		s.corrupt(step, &frames)
		for cam, f := range frames {
			if got, want := !bytes.Equal(f, sensor.NewFrame()), cam == 1 && step >= 3 && step < 7; got != want {
				t.Errorf("step %d camera %d: corrupted %v, want %v", step, cam, got, want)
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
