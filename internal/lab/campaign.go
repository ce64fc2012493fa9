package lab

import (
	"fmt"
	"sort"
	"time"

	"diverseav/internal/fi"
	"diverseav/internal/fi/instr"

	// The shipped fault surfaces register their planners on import;
	// anything that runs campaigns through the lab can name them.
	_ "diverseav/internal/fi/hallucinate"
	_ "diverseav/internal/fi/sensorfault"

	"diverseav/internal/geom"
	"diverseav/internal/obs"
	"diverseav/internal/par"
	"diverseav/internal/sim"
	"diverseav/internal/trace"
	"diverseav/internal/vm"
)

// Sizes configures campaign scale. Defaults are laptop-scale; Full
// restores the paper's counts.
type Sizes struct {
	Transient int // transient injections per (target, scenario)
	PermReps  int // repetitions of the full-ISA permanent sweep
	// PermStride sweeps every PermStride-th opcode (1 = full ISA); used
	// by the fast benchmark configuration.
	PermStride int
	Golden     int // golden runs per (scenario, mode)
	Training   int // fault-free training runs per long route
}

// DefaultSizes is fast enough for `go test -bench` on one core.
func DefaultSizes() Sizes {
	return Sizes{Transient: 18, PermReps: 1, PermStride: 1, Golden: 10, Training: 2}
}

// BenchSizes keeps a full regeneration inside a few minutes on one core.
func BenchSizes() Sizes {
	return Sizes{Transient: 3, PermReps: 1, PermStride: 6, Golden: 3, Training: 1}
}

// FullSizes mirrors the paper's campaign scale (§IV-D): 500 transient
// injections, 3 permanent repetitions per opcode, 50 golden runs.
func FullSizes() Sizes {
	return Sizes{Transient: 500, PermReps: 3, PermStride: 1, Golden: 50, Training: 4}
}

// RunRecord is one fault-injection experiment. Plan is the
// instruction-surface plan (zero for pluggable-surface campaigns, whose
// plan is described by Desc — surface plans are interface values and
// travel as their String form).
type RunRecord struct {
	Plan   fi.Plan
	Desc   string
	Result *sim.Result
}

// Activated reports whether the fault was actually injected (the paper's
// "#Active").
func (r RunRecord) Activated() bool { return r.Result.Activations > 0 }

// Label describes the run's fault plan for logs and reports, whichever
// surface it injected through.
func (r RunRecord) Label() string {
	if r.Desc != "" {
		return r.Desc
	}
	return r.Plan.String()
}

// Campaign is one (target, model, scenario) fault-injection campaign
// with its golden control runs.
type Campaign struct {
	ScenarioName string
	Mode         sim.Mode
	Target       vm.Device
	Model        fi.Model
	// Surface names the fault surface the campaign injected through; ""
	// is the legacy instruction surface (fi.SurfaceInstr).
	Surface string
	Golden  []*sim.Result
	Runs    []RunRecord
	// Baseline is the mean golden trajectory (same mode), the reference
	// for trajectory-violation labeling.
	Baseline []geom.Vec2
}

// DefaultCheckpointEvery is the golden-pass checkpoint interval (steps)
// used by transient fork execution. At 40 Hz this snapshots every 1.25 s
// of simulated time: ~24 checkpoints on the 30 s test scenarios, cheap
// next to a single re-simulated prefix.
const DefaultCheckpointEvery = 50

// runCampaign executes a campaign spec (the job body behind
// Lab.Campaign). Every surface runs through the same pipeline: its
// registered fi.SurfacePlanner draws the plans, each plan runs as one
// simulation, and the golden controls come from the Golden dependency.
//
// Transient campaigns follow NVBitFI's replay semantics: every injection
// run replays the campaign seed, differing only in the injected fault.
// All transient runs of a campaign therefore share one fault-free prefix
// up to each plan's detach step, and (unless the spec disables it)
// execute by forking from the latest checkpoint of one checkpointed
// golden pass at or before that step instead of re-simulating the
// prefix, batched into lane groups. Symmetrically, every fork
// tracks the golden pass's stream: once its fault has washed out
// bit-exactly, it splices the golden suffix instead of simulating it.
// The fork-, splice- and lane-equivalence invariants (see internal/sim)
// guarantee bit-identical traces, so CheckpointEvery, DisableSplice and
// LaneWidth only change wall-clock, never results — which is why they
// are excluded from the spec key.
//
// Permanent campaigns keep the cold path with per-run seeds: a permanent
// fault corrupts from the first step, so no prefix is fault-free,
// nothing is shareable, and the fault is never quiescent.
func runCampaign(l *Lab, s CampaignSpec) *Campaign {
	surface := s.surfaceName()
	sp, ok := fi.SurfaceByName(surface)
	if !ok {
		panic(fmt.Sprintf("lab: campaign surface %q is not registered", surface))
	}
	sc := l.scenarioByName(s.Scenario)
	every := s.CheckpointEvery
	if every == 0 {
		every = DefaultCheckpointEvery
	}
	fork := s.Model == fi.Transient && every > 0

	// Only instruction-surface transient plans read a profile: they draw
	// dynamic instruction indices from the profiled stream. A forked
	// campaign records it on its own checkpointed golden pass (the
	// profile observer never corrupts anything, so the checkpoints are
	// exactly those of a plain golden run); a cold one shares the
	// ProfileSpec artifact. The checkpoints are pooled live state,
	// released below — the pass is private to the job and never enters
	// the artifact store.
	var prof *fi.Profile
	var stream *sim.GoldenStream
	var cps []*sim.Checkpoint
	switch {
	case fork:
		cfg := sim.Config{Scenario: sc, Mode: s.Mode, Seed: s.Seed, CheckpointEvery: every}
		if s.profiled() {
			prof = new(fi.Profile)
			cfg.Profile = prof
		}
		res := sim.Run(cfg)
		stream = &sim.GoldenStream{Checkpoints: res.Checkpoints, Trace: res.Trace}
		cps = res.Checkpoints
	case s.profiled():
		prof = l.Profile(ProfileSpec{Scenario: s.Scenario, Mode: s.Mode, Seed: s.Seed})
	}
	n := s.Sizes.Transient
	if s.Model == fi.Permanent {
		n = s.Sizes.PermReps
	}
	nAgents := s.Mode.Agents()
	plans := sp.Plans(s.Seed, prof, s.Target, s.Model, int(sc.Duration*sim.Hz), nAgents, n, s.Sizes.PermStride)
	golden := l.Golden(s.Golden)

	c := &Campaign{
		ScenarioName: sc.Name,
		Mode:         s.Mode,
		Target:       s.Target,
		Model:        s.Model,
		Surface:      s.Surface,
		Golden:       golden,
		Runs:         make([]RunRecord, len(plans)),
	}
	// detach[i] is the step at or before which plan i's fault can first
	// act: the fork point and the lane-grouping key.
	detach := make([]int, len(plans))
	if fork {
		for i, p := range plans {
			detach[i] = detachStep(p, prof, nAgents)
		}
	}
	base := sim.Config{Scenario: sc, Mode: s.Mode}
	if s.Model == fi.Transient {
		// Replay seed: the injection run IS the golden pass plus one
		// fault, which is what makes its prefix forkable and its suffix
		// spliceable.
		base.Seed = s.Seed
		base.Golden = stream
		base.DisableSplice = s.DisableSplice
		base.Propagation = s.Propagation
	}
	ledger := l.Ledger()
	specKey := ""
	if ledger != nil {
		specKey = s.Key()
	}
	// emitRunSpan is the per-injection-run ledger audit trail for
	// divergence-aware execution: the exact step range the loop really
	// simulated, and why it stopped short if it did.
	emitRunSpan := func(i int, res *sim.Result, execNs int64) {
		ledger.EmitSpan(obs.Span{
			Key:            fmt.Sprintf("%s/run-%03d", specKey, i),
			Phase:          "run",
			Cache:          obs.CacheComputed,
			ExecNs:         execNs,
			SimulatedSteps: []int{res.Exec.SimulatedFrom, res.Exec.SimulatedTo},
			ExitReason:     res.Exec.ExitReason,
			Surface:        surface,
		})
	}
	runSolo := func(i int) {
		cfg := base
		cfg.Surface = plans[i]
		if s.Model == fi.Permanent {
			cfg.Seed = s.Seed + 5000 + uint64(i)*104729
		}
		var began time.Time
		if ledger != nil {
			began = time.Now()
		}
		var res *sim.Result
		if cp := forkPoint(cps, detach[i]); cp != nil {
			if forked, err := sim.RunFrom(cp, cfg); err == nil {
				obs.C("campaign.runs_forked").Inc()
				res = forked
			}
		}
		if res == nil {
			obs.C("campaign.runs_cold").Inc()
			res = sim.Run(cfg)
		}
		c.Runs[i] = record(plans[i], res)
		if ledger != nil {
			emitRunSpan(i, res, time.Since(began).Nanoseconds())
		}
	}
	laneW := s.LaneWidth
	if laneW == 0 {
		laneW = DefaultLaneWidth
	}
	if fork && laneW > 1 {
		runLaneGroups(c, plans, detach, base, laneW, runSolo, emitRunSpan, ledger != nil)
	} else {
		par.ForEach(len(plans), runSolo)
	}
	// Past the fork barrier every injection run has restored from its
	// checkpoint; recycle the snapshot buffers for the next campaign's
	// golden pass.
	sim.ReleaseCheckpoints(cps)

	c.Baseline = baselineOf(golden)
	if ledger != nil {
		emitPropagation(ledger, specKey, surface, c, plans)
	}
	return c
}

// detachStep is the step at or before which a plan's fault can first
// act. An instruction plan maps its dynamic index through the profile's
// per-step instruction counts; the machine counters bound the writeback
// DynIndex stream from above, so the mapped step is never later than the
// true activation step (detaching conservatively early is always safe).
// A dynamic index past the agent's profiled stream never activates:
// -1. A step-space plan detaches at its Start (step 0 when it has no
// decidable start, which runs it cold).
func detachStep(p fi.SurfacePlan, prof *fi.Profile, nAgents int) int {
	ip, ok := p.(instr.Plan)
	if !ok {
		return max(p.Start(), 0)
	}
	step, ok := prof.ActivationStep(ip.Agent%nAgents, ip.P.Target, ip.P.DynIndex)
	if !ok {
		return -1
	}
	return step
}

// record is plan's run record: instruction plans keep their fi.Plan,
// every other surface's plan travels as its String form.
func record(p fi.SurfacePlan, res *sim.Result) RunRecord {
	if ip, ok := p.(instr.Plan); ok {
		return RunRecord{Plan: ip.P, Result: res}
	}
	return RunRecord{Desc: p.String(), Result: res}
}

// emitPropagation streams every traced run's first-divergence record
// into the telemetry ledger, one obs.Propagation per run whose tracer
// observed a divergence. It runs after Baseline is computed so each
// record can carry the campaign-level verdict: "due" (the run hung or
// crashed), "sdc" (a safety hazard at the paper's td = 2 m), or
// "masked" (the fault acted but the outcome stayed benign). Runs whose
// fault never propagated to a checkpoint boundary — including every
// zero-activation run — carry no record at all; that absence is itself
// the masked-before-first-checkpoint signal ledger analytics count.
// Each record carries its plan's [start, end) activation window
// (fi.PlanWindow; nil for the instruction surface, whose reach is a
// dynamic instruction index).
func emitPropagation(ledger *obs.Ledger, specKey, surface string, c *Campaign, plans []fi.SurfacePlan) {
	for i := range c.Runs {
		r := &c.Runs[i]
		p := r.Result.Propagation
		if p == nil {
			continue
		}
		rec := obs.Propagation{
			Key:            fmt.Sprintf("%s/run-%03d", specKey, i),
			Surface:        surface,
			Site:           r.Label(),
			Subsystem:      p.Subsystem,
			Step:           p.Step,
			ActivationStep: p.ActivationStep,
			LatencySteps:   -1,
			Boundary:       p.Boundary(),
			Reconverged:    p.Reconverged,
			MaxLateral:     p.MaxLateral,
			MinCVIP:        p.MinCVIP,
			MinTTC:         p.MinTTC,
			Samples:        p.Samples,
			Window:         fi.PlanWindow(plans[i]),
		}
		if len(p.Subsystems) > 0 {
			rec.Subsystems = make(map[string]int, len(p.Subsystems))
			for _, h := range p.Subsystems {
				rec.Subsystems[h.Subsystem] = h.Step
			}
		}
		if p.ActivationStep >= 0 {
			rec.LatencySteps = p.Step - p.ActivationStep
		}
		switch {
		case r.Result.Trace.DUE():
			rec.Verdict = obs.VerdictDUE
		case c.Hazard(r.Result, 2.0):
			rec.Verdict = obs.VerdictSDC
		default:
			rec.Verdict = obs.VerdictMasked
		}
		ledger.EmitProp(rec)
	}
}

// DefaultLaneWidth is the lane-group size of batched transient campaign
// execution: up to this many injection runs share one fault-free prefix
// replay, then run their suffixes one after another from the pack's
// snapshots.
const DefaultLaneWidth = 16

// runLaneGroups is the batched transient scheduler: plans are sorted by
// detach step (never-activating golden clones first — they cost one
// trace copy each), so runs detaching together land in the same group
// and share one pack snapshot, and near ones share most of the pack
// replay; the order is
// chunked into lane-width groups, and each group executes through
// sim.RunLanesFrom on copies of base carrying the lanes' plans. A group
// that fails validation falls back to the solo fork path run by run —
// the results are identical either way (the lane-equivalence
// invariant), so the fallback is pure strategy too.
func runLaneGroups(c *Campaign, plans []fi.SurfacePlan, detach []int, base sim.Config, laneW int,
	runSolo func(int), emitRunSpan func(int, *sim.Result, int64), ledger bool) {

	order := make([]int, len(plans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return detach[order[a]] < detach[order[b]] })
	nGroups := (len(order) + laneW - 1) / laneW
	par.ForEach(nGroups, func(g int) {
		idxs := order[g*laneW : min((g+1)*laneW, len(order))]
		cfgs := make([]sim.Config, len(idxs))
		det := make([]int, len(idxs))
		for k, i := range idxs {
			cfgs[k] = base
			cfgs[k].Surface = plans[i]
			det[k] = detach[i]
		}
		began := time.Now()
		results, err := sim.RunLanesFrom(nil, cfgs, det)
		if err != nil {
			for _, i := range idxs {
				runSolo(i)
			}
			return
		}
		obs.C("campaign.runs_batched").Add(uint64(len(idxs)))
		// Per-run wall clock is not individually observable inside a lane
		// group; the span records the group mean, keeping campaign-level
		// ExecNs sums honest.
		perRunNs := time.Since(began).Nanoseconds() / int64(len(idxs))
		for k, i := range idxs {
			c.Runs[i] = record(plans[i], results[k])
			if ledger {
				emitRunSpan(i, results[k], perRunNs)
			}
		}
	})
}

// baselineOf is the mean golden trajectory, the reference for
// trajectory-violation labeling.
func baselineOf(golden []*sim.Result) []geom.Vec2 {
	goldenTraces := make([]*trace.Trace, 0, len(golden))
	for _, g := range golden {
		goldenTraces = append(goldenTraces, g.Trace)
	}
	return sim.MeanTrajectory(goldenTraces)
}

// forkPoint picks the latest checkpoint whose step is at or before the
// plan's detach step — the longest shareable fault-free prefix. A plan
// that never activates (detach < 0) is golden-equivalent, so any
// checkpoint works: use the latest.
func forkPoint(cps []*sim.Checkpoint, detach int) *sim.Checkpoint {
	if len(cps) == 0 {
		return nil
	}
	if detach < 0 {
		return cps[len(cps)-1]
	}
	var best *sim.Checkpoint
	for _, cp := range cps {
		if cp.Step > detach {
			break
		}
		best = cp
	}
	return best
}

// Hazard labels one run against the baseline: an accident, or a
// trajectory divergence of at least td meters (the paper's safety
// violations).
func (c *Campaign) Hazard(res *sim.Result, td float64) bool {
	if res.Trace.Collided() {
		return true
	}
	return sim.MaxTrajectoryDivergence(res.Trace, c.Baseline) >= td
}

// Table1Row is one row of the paper's Table I.
type Table1Row struct {
	Target       string
	Model        string
	Scenario     string
	Active       int
	HangCrash    int
	Total        int
	Accidents    int
	TrajViolates int // trajectory violation without accident, td = 2 m
}

// Table1Row aggregates the campaign at the paper's td = 2 m. For
// pluggable-surface campaigns the Target column carries the surface
// name — the hardware device is not the injection point there.
func (c *Campaign) Table1Row(td float64) Table1Row {
	row := Table1Row{
		Target:   c.Target.String(),
		Model:    c.Model.String(),
		Scenario: c.ScenarioName,
		Total:    len(c.Runs),
	}
	if c.Surface != "" {
		row.Target = c.Surface
	}
	for _, r := range c.Runs {
		if r.Activated() || r.Result.Trace.DUE() {
			row.Active++
		}
		switch {
		case r.Result.Trace.DUE():
			row.HangCrash++
		case r.Result.Trace.Collided():
			row.Accidents++
		case sim.MaxTrajectoryDivergence(r.Result.Trace, c.Baseline) >= td:
			row.TrajViolates++
		}
	}
	return row
}
