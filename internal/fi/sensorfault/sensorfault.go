// Package sensorfault is the AVFI-style sensor-level fault surface:
// corruption injected into the rendered camera frames between
// internal/sensor and the agent, before any perception code runs. Three
// kinds reproduce AVFI's image-fault menu: per-pixel bit flips (bus or
// DRAM corruption on the camera link), channel dropout (a dead color
// plane), and a frozen frame (a stuck capture pipeline replaying stale
// data). All are windowed — the fault is live for [Step, Step+Duration)
// and provably spent afterwards, which is what lets reconvergence
// splicing and lane batching treat the window end as the quiescence
// point.
package sensorfault

import (
	"fmt"

	"diverseav/internal/fi"
	"diverseav/internal/rng"
	"diverseav/internal/sensor"
	"diverseav/internal/vm"
)

// Kind selects the frame corruption.
type Kind int

const (
	// BitFlip flips one bit in each of Pixels randomly chosen bytes of
	// the target frame, per step in the window.
	BitFlip Kind = iota
	// ChannelDrop zeroes one color channel of the target frame.
	ChannelDrop
	// Freeze captures the frame at the window start and replays it for
	// the rest of the window.
	Freeze
	numKinds
)

func (k Kind) String() string {
	switch k {
	case BitFlip:
		return "bitflip"
	case ChannelDrop:
		return "chandrop"
	case Freeze:
		return "freeze"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Plan is one sensor-fault experiment: a pure value (fi.SurfacePlan).
type Plan struct {
	Kind     Kind
	Camera   int // frame-buffer index: 0 center, 1 left, 2 right
	Step     int // first corrupted step
	Duration int // window length in steps
	Pixels   int // BitFlip: corrupted bytes per step
	Bit      int // BitFlip: bit position within the byte (0..7)
	Channel  int // ChannelDrop: color plane (0 R, 1 G, 2 B)
	Seed     uint64
}

func (p Plan) Surface() string { return fi.SurfaceSensor }
func (p Plan) Start() int      { return p.Step }

// End is the first step past the corruption window (fi.WindowedPlan).
func (p Plan) End() int { return p.Step + p.Duration }

func (p Plan) String() string {
	switch p.Kind {
	case BitFlip:
		return fmt.Sprintf("sensorfault-bitflip cam=%d step=%d dur=%d px=%d bit=%d",
			p.Camera, p.Step, p.Duration, p.Pixels, p.Bit)
	case ChannelDrop:
		return fmt.Sprintf("sensorfault-chandrop cam=%d step=%d dur=%d ch=%d",
			p.Camera, p.Step, p.Duration, p.Channel%3)
	default:
		return fmt.Sprintf("sensorfault-freeze cam=%d step=%d dur=%d",
			p.Camera, p.Step, p.Duration)
	}
}

func (p Plan) New() fi.Surface { return &surface{plan: p} }

// surface is one armed sensor-fault instance. The only mutable state is
// the activation count and, for Freeze, the captured stale frame; the
// frame is scratch re-captured at the window start on a replayed fork,
// so only the counter needs checkpointing.
type surface struct {
	plan        Plan
	activations uint64
	frozen      sensor.Frame
}

func (s *surface) Name() string { return fi.SurfaceSensor }

func (s *surface) Arm(h fi.Harness) { h.OnFrames(s.corrupt) }

func (s *surface) corrupt(step int, frames *[3]sensor.Frame) {
	p := s.plan
	if step < p.Step || step >= p.Step+p.Duration {
		return
	}
	f := frames[p.Camera%3]
	switch p.Kind {
	case BitFlip:
		// Deterministic per (Seed, step) and independent of call count:
		// a fork replaying this step corrupts the identical bytes.
		r := rng.New(p.Seed ^ uint64(step)*0x9e3779b97f4a7c15)
		for i := 0; i < p.Pixels; i++ {
			f[r.Intn(len(f))] ^= 1 << (uint(p.Bit) & 7)
		}
	case ChannelDrop:
		ch := p.Channel % 3
		for i := ch; i < len(f); i += 3 {
			f[i] = 0
		}
	case Freeze:
		if step == p.Step {
			// Capture the last good frame content... which at hook time
			// is already this step's render; AVFI's stuck pipeline
			// delivers the first frame of the outage window repeatedly,
			// so capturing here and replaying below matches that.
			if s.frozen == nil {
				s.frozen = sensor.NewFrame()
			}
			copy(s.frozen, f)
		} else if s.frozen != nil {
			copy(f, s.frozen)
		}
	}
	s.activations++
}

// Quiescent: a windowed fault is spent once the window is behind step.
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

// planner draws sensor-fault campaigns (fi.SurfacePlanner).
type planner struct{}

func (planner) Name() string { return fi.SurfaceSensor }

// Plans: the Transient model draws n random corruption windows; the
// Permanent model sweeps every kind over every camera from step 0 for
// the whole scenario, n times (the analogue of the per-opcode sweep),
// thinned to every stride-th plan.
func (planner) Plans(seed uint64, _ *fi.Profile, _ vm.Device, model fi.Model, steps, _, n, stride int) []fi.SurfacePlan {
	r, _ := fi.CampaignStreams(seed)
	plans := []fi.SurfacePlan{}
	if n <= 0 || steps <= 0 {
		return plans
	}
	if model == fi.Permanent {
		for rep := 0; rep < n; rep++ {
			for k := Kind(0); k < numKinds; k++ {
				for cam := 0; cam < 3; cam++ {
					plans = append(plans, Plan{
						Kind: k, Camera: cam, Step: 0, Duration: steps,
						Pixels: 48 + r.Intn(208), Bit: r.Intn(8),
						Channel: r.Intn(3), Seed: r.Uint64(),
					})
				}
			}
		}
		return fi.Stride(plans, stride)
	}
	for i := 0; i < n; i++ {
		dur := 20 + r.Intn(60)
		start := r.Intn(steps)
		if start+dur > steps {
			dur = steps - start
		}
		plans = append(plans, Plan{
			Kind: Kind(r.Intn(int(numKinds))), Camera: r.Intn(3),
			Step: start, Duration: dur,
			Pixels: 48 + r.Intn(208), Bit: r.Intn(8),
			Channel: r.Intn(3), Seed: r.Uint64(),
		})
	}
	return plans
}

func init() { fi.RegisterSurface(planner{}) }
