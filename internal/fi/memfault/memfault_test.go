package memfault

import (
	"math"
	"testing"

	"diverseav/internal/fi"
	"diverseav/internal/sensor"
	"diverseav/internal/vm"
)

// harness is a minimal fi.Harness over bare machines that records the
// frame hooks an armed surface registers.
type harness struct {
	ms    []*vm.Machine
	hooks []fi.FrameHook
}

func (h *harness) Agents() int               { return len(h.ms) }
func (h *harness) SharedProcessor() bool     { return true }
func (h *harness) Machine(i int) *vm.Machine { return h.ms[i] }
func (h *harness) OnFrames(f fi.FrameHook)   { h.hooks = append(h.hooks, f) }
func (h *harness) OnOutput(fi.OutputHook)    {}

func (h *harness) step(step int) {
	for _, f := range h.hooks {
		f(step, &[3]sensor.Frame{})
	}
}

// TestFlipLandsOnceAtItsStep pins the surface's contract: one bit flip
// in the chosen agent's memory (address clamped, agent taken modulo the
// agent count) at exactly the plan's step, quiescent afterwards, with a
// fork-safe activation counter.
func TestFlipLandsOnceAtItsStep(t *testing.T) {
	h := &harness{ms: []*vm.Machine{vm.NewMachine(64), vm.NewMachine(64)}}
	h.ms[1].Mem()[63] = 1.5
	p := Plan{Agent: 3, Step: 5, Addr: 1 << 20, Bit: 62}
	s := p.New()
	s.Arm(h)
	if p.Start() != 5 || fi.PlanWindow(p)[1] != 6 {
		t.Fatalf("window %v, want [5 6)", fi.PlanWindow(p))
	}
	for step := 0; step < 10; step++ {
		if got, want := s.Quiescent(step), step > 5; got != want {
			t.Errorf("Quiescent(%d) = %v, want %v", step, got, want)
		}
		h.step(step)
	}
	if got, want := math.Float64bits(h.ms[1].Mem()[63]), math.Float64bits(1.5)^1<<62; got != want {
		t.Errorf("agent 1 word 63 = %#x, want %#x", got, want)
	}
	if h.ms[0].Mem()[63] != 0 {
		t.Error("the flip reached agent 0")
	}
	if s.Activations() != 1 {
		t.Errorf("activations %d, want 1", s.Activations())
	}
	snap := s.Snapshot()
	s.Restore(nil)
	if s.Activations() != 0 {
		t.Error("Restore(nil) kept the activation count")
	}
	s.Restore(snap)
	if s.Activations() != 1 {
		t.Error("Restore did not round-trip the activation count")
	}
}
