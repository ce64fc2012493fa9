package lab

import (
	"fmt"
	"hash/fnv"

	"diverseav/internal/core"
	"diverseav/internal/fi"
	"diverseav/internal/par"
	"diverseav/internal/scenario"
	"diverseav/internal/sim"
	"diverseav/internal/trace"
	"diverseav/internal/vm"
)

// Spec is one experiment artifact's declarative definition. A spec is a
// pure value: two specs with equal fields denote the same artifact, and
// Key() is a stable content hash over everything that can change the
// artifact's bytes — which is exactly what makes the memoizing store
// sound. Specs are implemented only in this package; callers compose
// them and hand them to a Lab.
type Spec interface {
	// Key returns the artifact's stable identity: a filename-safe string
	// of the form "<kind>-<context>-<fnv64 of the canonical fields>".
	// Fields that change execution strategy but provably not results
	// (an untraced CampaignSpec's CheckpointEvery, by the
	// fork-equivalence invariant) are excluded.
	Key() string

	// normalize fills derived defaults (zero seeds become key-derived
	// seeds, a campaign's zero golden spec becomes its conventional
	// shared-golden set) and returns the canonical spec value.
	normalize() Spec
	// deps lists the artifacts this spec's job consumes. Called on
	// normalized specs.
	deps() []Spec
	// run computes the artifact, fetching deps through the lab (where
	// they are already memoized when scheduled via Require).
	run(l *Lab) any
	// kind names the spec's artifact class ("golden", "profile",
	// "campaign", "detector") — the phase field of its telemetry span.
	kind() string
}

// fnvSum hashes the canonical field string of a spec.
func fnvSum(canon string) string {
	h := fnv.New64a()
	h.Write([]byte(canon))
	return fmt.Sprintf("%016x", h.Sum64())
}

// deriveSeed maps a spec's seed-free canonical string to a nonzero seed,
// so specs built without an explicit seed are still fully reproducible:
// the same spec always derives the same seed, and any field change
// derives a different one.
func deriveSeed(canon string) uint64 {
	h := fnv.New64a()
	h.Write([]byte("seed|"))
	h.Write([]byte(canon))
	s := h.Sum64()
	if s == 0 {
		s = 1
	}
	return s
}

// GoldenSpec declares a batch of fault-free control runs of one scenario
// in one agent mode: N runs with distinct seeds derived from Seed (the
// paper's golden runs, §IV-C). Artifact type: []*sim.Result.
type GoldenSpec struct {
	Scenario string
	Mode     sim.Mode
	N        int
	// Seed is the batch's base seed (run i uses Seed + i*7919). Zero
	// selects a key-derived seed.
	Seed uint64
}

func (s GoldenSpec) norm() GoldenSpec {
	if s.Seed == 0 {
		s.Seed = deriveSeed(fmt.Sprintf("golden|%s|%s|n=%d", s.Scenario, s.Mode, s.N))
	}
	return s
}

func (s GoldenSpec) canon() string {
	return fmt.Sprintf("golden|v1|%s|%s|n=%d|seed=%d", s.Scenario, s.Mode, s.N, s.Seed)
}

// Key implements Spec.
func (s GoldenSpec) Key() string {
	n := s.norm()
	return fmt.Sprintf("golden-%s-%s-%s", n.Scenario, n.Mode, fnvSum(n.canon()))
}

func (s GoldenSpec) normalize() Spec { return s.norm() }
func (s GoldenSpec) deps() []Spec    { return nil }
func (s GoldenSpec) kind() string    { return "golden" }

func (s GoldenSpec) run(l *Lab) any {
	sc := l.scenarioByName(s.Scenario)
	out := make([]*sim.Result, s.N)
	par.ForEach(s.N, func(i int) {
		out[i] = sim.Run(sim.Config{
			Scenario: sc,
			Mode:     s.Mode,
			Seed:     s.Seed + uint64(i)*7919,
		})
	})
	return out
}

// ProfileSpec declares one fault-free profiling pass: the dynamic
// instruction profile of agent 0 (the NVBitFI/PinFI analogue), shared by
// every campaign that plans against the same (scenario, mode, seed).
// Artifact type: *fi.Profile.
//
// The checkpoint-emitting profiling pass of a fork-executed transient
// campaign is deliberately NOT a lab artifact: its checkpoints are live
// runner state drawn from a recycling pool and released back as soon as
// the campaign's forks complete, so caching them would alias freed
// buffers. Those passes run privately inside the campaign job.
type ProfileSpec struct {
	Scenario string
	Mode     sim.Mode
	Seed     uint64 // zero selects a key-derived seed
}

func (s ProfileSpec) norm() ProfileSpec {
	if s.Seed == 0 {
		s.Seed = deriveSeed(fmt.Sprintf("profile|%s|%s", s.Scenario, s.Mode))
	}
	return s
}

func (s ProfileSpec) canon() string {
	return fmt.Sprintf("profile|v1|%s|%s|seed=%d", s.Scenario, s.Mode, s.Seed)
}

// Key implements Spec.
func (s ProfileSpec) Key() string {
	n := s.norm()
	return fmt.Sprintf("profile-%s-%s-%s", n.Scenario, n.Mode, fnvSum(n.canon()))
}

func (s ProfileSpec) normalize() Spec { return s.norm() }
func (s ProfileSpec) deps() []Spec    { return nil }
func (s ProfileSpec) kind() string    { return "profile" }

func (s ProfileSpec) run(l *Lab) any {
	var prof fi.Profile
	sim.Run(sim.Config{Scenario: l.scenarioByName(s.Scenario), Mode: s.Mode, Seed: s.Seed, Profile: &prof})
	return &prof
}

// CampaignSpec declares one fault-injection campaign: plans drawn from a
// profiling pass, one simulation per plan, golden controls from the
// Golden dependency, aggregated into a *Campaign artifact.
type CampaignSpec struct {
	Scenario string
	Mode     sim.Mode
	Target   vm.Device
	Model    fi.Model
	Sizes    Sizes
	// Seed is the campaign base seed: it seeds the profiling pass, the
	// planner, the fault-agent draw, and (for permanent campaigns) the
	// per-run seeds. Zero selects a key-derived seed.
	Seed uint64
	// Golden names the shared golden control set. The zero value derives
	// the campaign's conventional private set: Sizes.Golden runs of the
	// same scenario and mode at Seed+1000.
	Golden GoldenSpec
	// CheckpointEvery is the golden-pass checkpoint interval of transient
	// campaigns: 0 selects DefaultCheckpointEvery, a negative value runs
	// every injection cold from step 0 (the test oracle). By the
	// fork-equivalence invariant (see internal/sim) it changes wall-clock
	// only, so it is NOT part of an untraced Key(). A traced campaign's
	// probe fires at golden checkpoint steps, so there it is keyed, and
	// a cold traced campaign is rejected.
	CheckpointEvery int
	// Surface selects the fault surface the campaign injects through:
	// "" or "instr" is the instruction-level XOR injector (the legacy
	// default — both normalize to the same spec, and the zero value
	// keys byte-identically to the pre-surface hash); any other value
	// must name a registered fi.SurfacePlanner ("sensorfault",
	// "hallucinate"). Part of Key(), appended to the canonical string
	// only when set.
	Surface string
	// Propagation turns on the fault-propagation tracer for every
	// injection run: each run's Result carries a first-divergence
	// attribution record (internal/sim.Propagation). Tracing never
	// changes a trace — the probe is read-only — but the records ARE
	// part of the campaign artifact (they ride the wire format and feed
	// ledger analytics), so unlike CheckpointEvery this IS part of
	// Key(), appended to the canonical string only when set so every
	// existing key survives.
	Propagation bool
}

func (s CampaignSpec) norm() CampaignSpec {
	if s.Surface == fi.SurfaceInstr {
		// The named instruction surface IS the legacy default: collapse
		// to the zero value so both spell the same artifact.
		s.Surface = ""
	}
	if s.Seed == 0 {
		s.Seed = deriveSeed(fmt.Sprintf("campaign|%s|%s|%s|%s|tr=%d|reps=%d|stride=%d",
			s.Scenario, s.Mode, s.Target, s.Model, s.Sizes.Transient, s.Sizes.PermReps, s.Sizes.PermStride))
	}
	if s.Golden == (GoldenSpec{}) {
		s.Golden = GoldenSpec{Scenario: s.Scenario, Mode: s.Mode, N: s.Sizes.Golden, Seed: s.Seed + 1000}
	}
	s.Golden = s.Golden.norm()
	return s
}

func (s CampaignSpec) canon() string {
	c := fmt.Sprintf("campaign|v1|%s|%s|%s|%s|tr=%d|reps=%d|stride=%d|seed=%d|golden=%s",
		s.Scenario, s.Mode, s.Target, s.Model,
		s.Sizes.Transient, s.Sizes.PermReps, s.Sizes.PermStride, s.Seed, s.Golden.Key())
	if s.Surface != "" {
		c += "|surface=" + s.Surface
	}
	if s.Propagation {
		c += "|prop=1"
		// Only off the default, so every existing traced key survives.
		if every := s.checkpointEvery(); every != DefaultCheckpointEvery {
			c += fmt.Sprintf("|every=%d", every)
		}
	}
	return c
}

// Key implements Spec. Sizes.Golden and Sizes.Training do not appear
// directly: the golden count is identified through the Golden dependency
// key, and training size never influences a campaign.
func (s CampaignSpec) Key() string {
	n := s.norm()
	if n.Surface != "" {
		return fmt.Sprintf("campaign-%s-%s-%s-%s-%s-%s", n.Surface, n.Scenario, n.Mode, n.Target, n.Model, fnvSum(n.canon()))
	}
	return fmt.Sprintf("campaign-%s-%s-%s-%s-%s", n.Scenario, n.Mode, n.Target, n.Model, fnvSum(n.canon()))
}

func (s CampaignSpec) normalize() Spec { return s.norm() }
func (s CampaignSpec) kind() string    { return "campaign" }

// surfaceName is the registered surface the campaign injects through:
// the empty Surface is the instruction surface.
func (s CampaignSpec) surfaceName() string {
	if s.Surface == "" {
		return fi.SurfaceInstr
	}
	return s.Surface
}

// checkpointEvery is the golden-pass checkpoint interval with the zero
// value resolved; negative runs cold.
func (s CampaignSpec) checkpointEvery() int {
	if s.CheckpointEvery == 0 {
		return DefaultCheckpointEvery
	}
	return s.CheckpointEvery
}

// profiled reports whether the campaign plans against an instruction
// profile: only instruction-surface transient plans do.
func (s CampaignSpec) profiled() bool {
	return s.surfaceName() == fi.SurfaceInstr && s.Model == fi.Transient
}

func (s CampaignSpec) deps() []Spec {
	d := []Spec{s.Golden}
	if s.profiled() && s.CheckpointEvery < 0 {
		// Cold transient campaigns plan against a plain (checkpoint-free)
		// profiling pass, a shareable artifact. Fork-executed transient
		// campaigns profile privately — see ProfileSpec. Permanent
		// campaigns sweep the ISA without reading a profile, and
		// non-instruction surfaces plan in step space.
		d = append(d, ProfileSpec{Scenario: s.Scenario, Mode: s.Mode, Seed: s.Seed})
	}
	return d
}

func (s CampaignSpec) run(l *Lab) any { return runCampaign(l, s) }

// DetectorSpec declares a trained error-detection engine: fault-free
// training runs on the three long routes in the given mode, thresholds
// learned per the comparison scheme (§III-D). Artifact type:
// *core.Detector.
type DetectorSpec struct {
	Cfg      core.Config
	Mode     sim.Mode
	Compare  core.CompareMode
	PerRoute int
	Seed     uint64 // zero selects a key-derived seed
}

func (s DetectorSpec) norm() DetectorSpec {
	if s.Seed == 0 {
		s.Seed = deriveSeed(fmt.Sprintf("detector|%s|%s|per=%d", s.Mode, s.Compare, s.PerRoute))
	}
	return s
}

func (s DetectorSpec) canon() string {
	return fmt.Sprintf("detector|v1|%s|%s|rw=%d|margin=%g|eps=%g|hold=%d|warmup=%d|per=%d|seed=%d",
		s.Mode, s.Compare, s.Cfg.RW, s.Cfg.Margin, s.Cfg.Epsilon, s.Cfg.Hold, s.Cfg.Warmup, s.PerRoute, s.Seed)
}

// Key implements Spec.
func (s DetectorSpec) Key() string {
	n := s.norm()
	return fmt.Sprintf("detector-%s-%s-%s", n.Mode, n.Compare, fnvSum(n.canon()))
}

func (s DetectorSpec) normalize() Spec { return s.norm() }
func (s DetectorSpec) deps() []Spec    { return nil }
func (s DetectorSpec) kind() string    { return "detector" }

func (s DetectorSpec) run(l *Lab) any {
	routes := scenario.TrainingRoutes()
	// Training is streamed: each run trains its own index-addressed
	// partial detector and drops its trace at once, so no more than one
	// trace per running worker is alive. Thresholds are maxima, so the
	// merged partials are exactly the detector Train would learn over all
	// the traces, for any GOMAXPROCS and completion order.
	parts := make([]*core.Detector, len(routes)*s.PerRoute)
	par.ForEach(len(parts), func(idx int) {
		ri, k := idx/s.PerRoute, idx%s.PerRoute
		res := sim.Run(sim.Config{
			Scenario: routes[ri],
			Mode:     s.Mode,
			Seed:     s.Seed + uint64(ri*100+k)*6151,
		})
		part := core.NewDetector(s.Cfg, s.Compare)
		part.Train([]*trace.Trace{res.Trace}, s.Compare)
		parts[idx] = part
	})
	det := core.NewDetector(s.Cfg, s.Compare)
	for _, part := range parts {
		det.Merge(part)
	}
	return det
}
