// Package memfault is the ECC-off memory fault surface of the paper's
// §VIII extension: one uncorrected bit flip landing in an agent's
// fabric memory at a chosen step, where ECC would otherwise have
// corrected it. The flip happens after the step's sensor data is
// rendered and before any agent executes, so every agent that runs at
// that step already reads the corrupted word.
//
// The surface registers no campaign planner: the ECC-off ablation
// draws its own flip sites.
package memfault

import (
	"fmt"
	"math"

	"diverseav/internal/fi"
	"diverseav/internal/sensor"
	"diverseav/internal/vm"
)

// Name is the surface identity.
const Name = "memfault"

// Plan is one memory bit flip: a pure value (fi.SurfacePlan).
type Plan struct {
	Agent int  // whose memory, modulo the run's agent count
	Step  int  // simulation step at which the flip lands
	Addr  int  // word address (clamped into the memory range)
	Bit   uint // bit position within the 64-bit word (modulo 64)
}

func (p Plan) Surface() string { return Name }

func (p Plan) String() string {
	return fmt.Sprintf("memfault agent=%d step=%d addr=%d bit=%d", p.Agent, p.Step, p.Addr, p.Bit)
}

// Start is the flip step; the window is that one step (fi.WindowedPlan).
func (p Plan) Start() int { return p.Step }

// End is the first step past the flip.
func (p Plan) End() int { return p.Step + 1 }

func (p Plan) New() fi.Surface { return &surface{plan: p} }

// surface is one armed memory-fault instance: the target machine and
// the activation count (0 or 1).
type surface struct {
	plan        Plan
	m           *vm.Machine
	activations uint64
}

func (s *surface) Name() string { return Name }

// Arm picks the target agent's machine and flips through a frame hook,
// the point in the step between rendering and agent execution.
func (s *surface) Arm(h fi.Harness) {
	s.m = h.Machine(s.plan.Agent % h.Agents())
	h.OnFrames(s.flip)
}

func (s *surface) flip(step int, _ *[3]sensor.Frame) {
	if step != s.plan.Step {
		return
	}
	mem := s.m.Mem()
	addr := min(max(s.plan.Addr, 0), len(mem)-1)
	mem[addr] = math.Float64frombits(math.Float64bits(mem[addr]) ^ (1 << (s.plan.Bit & 63)))
	s.activations++
}

// Quiescent: the flip is spent once its step is behind.
func (s *surface) Quiescent(step int) bool { return step > s.plan.Step }

func (s *surface) Activations() uint64 { return s.activations }

func (s *surface) Snapshot() []uint64 { return []uint64{s.activations} }

func (s *surface) Restore(counters []uint64) {
	s.activations = 0
	if len(counters) > 0 {
		s.activations = counters[0]
	}
}
