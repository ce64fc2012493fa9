// Package hallucinate is the perception-interface fault surface: the
// "Injecting Hallucinations" model, which perturbs the vision planner's
// *outputs* instead of its computation. Faults act on the agent's
// declared world model — the obstacle distance and local waypoints —
// component-agnostically: no VM program is touched, so the same plans
// apply unchanged to any perception implementation behind the same
// interface. Three kinds: a phantom obstacle (a detection that is not
// there), a dropped obstacle (a real detection suppressed), and a
// lane-offset bias (waypoints and steering shifted laterally).
//
// Because the perturbation replaces what the planner reported, the
// downstream reaction that the planner's own control program would have
// produced is emulated here from the same policy constants the control
// program uses (the panic-brake boundary d < 1.0·v + 3.5 with a /3.0
// ramp, internal/agent/programs.go): a phantom obstacle must actually
// brake the vehicle, and a dropped one must actually release it.
package hallucinate

import (
	"fmt"

	"diverseav/internal/agent"
	"diverseav/internal/fi"
	"diverseav/internal/rng"
	"diverseav/internal/vm"
)

// Kind selects the perception perturbation.
type Kind int

const (
	// Phantom reports a non-existent obstacle Dist meters ahead.
	Phantom Kind = iota
	// Drop suppresses the reported obstacle (clear road ahead).
	Drop
	// LaneBias shifts the predicted waypoints Bias meters laterally and
	// biases the steering command to follow them.
	LaneBias
	numKinds
)

func (k Kind) String() string {
	switch k {
	case Phantom:
		return "phantom"
	case Drop:
		return "drop"
	case LaneBias:
		return "lanebias"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// bigDist is the planner's "no obstacle" sentinel distance
// (internal/agent layout: obstacle scan saturates at 200 m).
const bigDist = 200.0

// Plan is one perception-interface experiment: a pure value
// (fi.SurfacePlan).
type Plan struct {
	Kind     Kind
	Agent    int     // perturbed agent instance (mod the mode's agent count)
	Step     int     // first perturbed step
	Duration int     // window length in steps
	Dist     float64 // Phantom: hallucinated obstacle distance, m
	Bias     float64 // LaneBias: lateral offset, m (signed)
}

func (p Plan) Surface() string { return fi.SurfaceHallucinate }
func (p Plan) Start() int      { return p.Step }

// End is the first step past the perturbation window (fi.WindowedPlan).
func (p Plan) End() int { return p.Step + p.Duration }

func (p Plan) String() string {
	switch p.Kind {
	case Phantom:
		return fmt.Sprintf("hallucinate-phantom agent=%d step=%d dur=%d dist=%.1f",
			p.Agent, p.Step, p.Duration, p.Dist)
	case Drop:
		return fmt.Sprintf("hallucinate-drop agent=%d step=%d dur=%d",
			p.Agent, p.Step, p.Duration)
	default:
		return fmt.Sprintf("hallucinate-lanebias agent=%d step=%d dur=%d bias=%.2f",
			p.Agent, p.Step, p.Duration, p.Bias)
	}
}

func (p Plan) New() fi.Surface { return &surface{plan: p} }

// surface is one armed perception-fault instance; the only mutable
// state is the activation count, so checkpointing is a single counter.
type surface struct {
	plan        Plan
	agents      int
	activations uint64
}

func (s *surface) Name() string { return fi.SurfaceHallucinate }

func (s *surface) Arm(h fi.Harness) {
	s.agents = h.Agents()
	h.OnOutput(s.perturb)
}

func (s *surface) perturb(agentID, step int, in *agent.Input, out *agent.Output) {
	p := s.plan
	if agentID != p.Agent%s.agents || step < p.Step || step >= p.Step+p.Duration {
		return
	}
	switch p.Kind {
	case Phantom:
		if out.ObstacleDist > p.Dist {
			out.ObstacleDist = p.Dist
		}
		// Emulate the control program's reaction to the hallucinated
		// detection: the panic-brake policy from programs.go, boundary
		// 1.0·v + 3.5 m with a /3.0 ramp to full braking.
		ramp := ((1.0*in.Speed + 3.5) - out.ObstacleDist) / 3.0
		if ramp > 0 {
			if ramp > 1 {
				ramp = 1
			}
			out.Controls.Throttle *= 1 - ramp
			if out.Controls.Brake < ramp {
				out.Controls.Brake = ramp
			}
		}
	case Drop:
		// The planner reports clear road: the obstacle disappears and
		// with it any braking the controller issued for it.
		out.ObstacleDist = bigDist
		out.Controls.Brake = 0
	case LaneBias:
		for i := range out.Waypoints {
			out.Waypoints[i][1] += p.Bias
		}
		steer := out.Controls.Steer + float64(0.3*p.Bias)
		if steer > 1 {
			steer = 1
		} else if steer < -1 {
			steer = -1
		}
		out.Controls.Steer = steer
	}
	s.activations++
}

// Quiescent: the perturbation window is the fault's entire reach.
func (s *surface) Quiescent(step int) bool {
	return step >= s.plan.Step+s.plan.Duration
}

func (s *surface) Activations() uint64 { return s.activations }

func (s *surface) Snapshot() []uint64 { return []uint64{s.activations} }

func (s *surface) Restore(counters []uint64) {
	if len(counters) > 0 {
		s.activations = counters[0]
	} else {
		s.activations = 0
	}
}

// planner draws perception-fault campaigns (fi.SurfacePlanner).
type planner struct{}

func (planner) Name() string { return fi.SurfaceHallucinate }

// Plans: the Transient model draws n random hallucination windows over
// random agents; the Permanent model sweeps every kind over every agent
// instance from step 0 for the whole scenario, n times, thinned to
// every stride-th plan.
func (planner) Plans(seed uint64, _ *fi.Profile, _ vm.Device, model fi.Model, steps, agents, n, stride int) []fi.SurfacePlan {
	r, _ := fi.CampaignStreams(seed)
	plans := []fi.SurfacePlan{}
	if n <= 0 || steps <= 0 || agents <= 0 {
		return plans
	}
	if model == fi.Permanent {
		for rep := 0; rep < n; rep++ {
			for k := Kind(0); k < numKinds; k++ {
				for a := 0; a < agents; a++ {
					plans = append(plans, Plan{
						Kind: k, Agent: a, Step: 0, Duration: steps,
						Dist: 4 + float64(10*r.Float64()), Bias: drawBias(r),
					})
				}
			}
		}
		return fi.Stride(plans, stride)
	}
	for i := 0; i < n; i++ {
		dur := 40 + r.Intn(80)
		start := r.Intn(steps)
		if start+dur > steps {
			dur = steps - start
		}
		plans = append(plans, Plan{
			Kind: Kind(r.Intn(int(numKinds))), Agent: r.Intn(agents),
			Step: start, Duration: dur,
			Dist: 4 + float64(10*r.Float64()), Bias: drawBias(r),
		})
	}
	return plans
}

// drawBias draws a signed lateral offset of 0.5–2.0 m: below half a
// meter the bias stays inside the lane and is almost always masked.
func drawBias(r *rng.Rand) float64 {
	b := 0.5 + float64(1.5*r.Float64())
	if r.Bool(0.5) {
		return -b
	}
	return b
}

func init() { fi.RegisterSurface(planner{}) }
