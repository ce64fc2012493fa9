package lab

import (
	"fmt"
	"sort"
	"time"

	"diverseav/internal/fi"

	// The shipped fault surfaces register their planners on import;
	// anything that runs campaigns through the lab can name them.
	_ "diverseav/internal/fi/hallucinate"
	_ "diverseav/internal/fi/sensorfault"

	"diverseav/internal/geom"
	"diverseav/internal/obs"
	"diverseav/internal/par"
	"diverseav/internal/rng"
	"diverseav/internal/scenario"
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

// ProfileWithStream is the checkpoint-emitting profiling pass: one
// fault-free run that records the instruction profile AND snapshots the
// loop state every `every` steps, returned together with the run's full
// trace as a sim.GoldenStream. The profile observer never corrupts
// anything, so the checkpoints are exactly those of a plain golden run
// at the same seed — valid fork points for any injection run that
// replays the seed and whose fault activates after the checkpoint, and
// (through the stream's digests) valid reconvergence splice points for
// any fork whose fault is spent and whose state has returned to the
// golden bits.
func ProfileWithStream(sc *scenario.Scenario, mode sim.Mode, seed uint64, every int) (*fi.Profile, *sim.GoldenStream) {
	var prof fi.Profile
	res := sim.Run(sim.Config{Scenario: sc, Mode: mode, Seed: seed, Profile: &prof, CheckpointEvery: every})
	return &prof, &sim.GoldenStream{Checkpoints: res.Checkpoints, Trace: res.Trace}
}

// ProfileWithCheckpoints is ProfileWithStream without the golden trace,
// kept for callers that only fork and never splice.
func ProfileWithCheckpoints(sc *scenario.Scenario, mode sim.Mode, seed uint64, every int) (*fi.Profile, []*sim.Checkpoint) {
	prof, stream := ProfileWithStream(sc, mode, seed, every)
	return prof, stream.Checkpoints
}

// DefaultCheckpointEvery is the golden-pass checkpoint interval (steps)
// used by transient fork execution. At 40 Hz this snapshots every 1.25 s
// of simulated time: ~24 checkpoints on the 30 s test scenarios, cheap
// next to a single re-simulated prefix.
const DefaultCheckpointEvery = 50

// runCampaign executes a campaign spec (the job body behind
// Lab.Campaign).
//
// Transient campaigns follow NVBitFI's replay semantics: every injection
// run replays the profiling run's seed, differing only in the injected
// fault. All transient runs of a campaign therefore share one fault-free
// prefix up to each plan's activation step, and (unless the spec
// disables it) execute by forking from the latest profiling-pass
// checkpoint at or before that step instead of re-simulating the prefix.
// Symmetrically, every fork tracks the profiling pass's golden stream:
// once its fault has washed out bit-exactly, it splices the golden
// suffix instead of simulating it. The fork-equivalence and
// splice-equivalence invariants (see internal/sim) guarantee
// bit-identical traces, so CheckpointEvery and DisableSplice only change
// wall-clock, never results — which is why both are excluded from the
// spec key.
//
// Permanent campaigns keep the cold path with per-run seeds: a permanent
// fault corrupts from the first instruction, so no prefix is fault-free,
// nothing is shareable, and the fault is never quiescent.
func runCampaign(l *Lab, s CampaignSpec) *Campaign {
	if s.Surface != "" {
		// Pluggable-surface campaigns plan in step space and fork from a
		// plain checkpointed golden pass; the instruction path below
		// (profile + dynamic-index planner) stays exactly as it was.
		return runSurfaceCampaign(l, s)
	}
	sc := l.scenarioByName(s.Scenario)
	seedBase := s.Seed
	every := s.CheckpointEvery
	if every == 0 {
		every = DefaultCheckpointEvery
	}

	var prof *fi.Profile
	var stream *sim.GoldenStream
	var cps []*sim.Checkpoint
	switch {
	case s.Model == fi.Permanent:
		// The permanent sweep covers the whole ISA and reads no profile.
	case every > 0:
		// Checkpoints are pooled live state, released below — this pass is
		// private to the job and never enters the artifact store.
		prof, stream = ProfileWithStream(sc, s.Mode, seedBase, every)
		cps = stream.Checkpoints
	default:
		prof = l.Profile(ProfileSpec{Scenario: s.Scenario, Mode: s.Mode, Seed: seedBase})
	}
	planner := fi.NewPlanner(rng.New(seedBase ^ 0xfa017))
	var plans []fi.Plan
	if s.Model == fi.Transient {
		plans = planner.TransientPlans(s.Target, prof, s.Sizes.Transient)
	} else {
		plans = planner.PermanentPlans(s.Target, s.Sizes.PermReps)
		if s.Sizes.PermStride > 1 {
			strided := plans[:0]
			for i, p := range plans {
				if i%s.Sizes.PermStride == 0 {
					strided = append(strided, p)
				}
			}
			plans = strided
		}
	}
	golden := l.Golden(s.Golden)

	c := &Campaign{
		ScenarioName: sc.Name,
		Mode:         s.Mode,
		Target:       s.Target,
		Model:        s.Model,
		Golden:       golden,
		Runs:         make([]RunRecord, len(plans)),
	}
	agentPick := rng.New(seedBase ^ 0xa6e27)
	faultAgents := make([]int, len(plans))
	for i := range faultAgents {
		faultAgents[i] = agentPick.Intn(2)
	}
	nAgents := s.Mode.Agents()
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
			Surface:        obs.SurfaceInstr,
		})
	}
	runSolo := func(i int) {
		plan := plans[i]
		cfg := sim.Config{
			Scenario:   sc,
			Mode:       s.Mode,
			Fault:      &plan,
			FaultAgent: faultAgents[i],
		}
		var began time.Time
		if ledger != nil {
			began = time.Now()
		}
		var res *sim.Result
		if s.Model == fi.Transient {
			// Replay seed: the injection run IS the profiling run plus one
			// fault, which is what makes its prefix forkable and its suffix
			// spliceable.
			cfg.Seed = seedBase
			cfg.Golden = stream
			cfg.DisableSplice = s.DisableSplice
			cfg.EarlyExitDivergence = s.EarlyExit
			cfg.Propagation = s.Propagation
			if cp := forkPoint(cps, prof, faultAgents[i]%nAgents, plan); cp != nil {
				if forked, err := sim.RunFrom(cp, cfg); err == nil {
					obs.C("campaign.runs_forked").Inc()
					res = forked
				}
			}
		} else {
			cfg.Seed = seedBase + 5000 + uint64(i)*104729
		}
		if res == nil {
			obs.C("campaign.runs_cold").Inc()
			res = sim.Run(cfg)
		}
		c.Runs[i] = RunRecord{Plan: plan, Result: res}
		if ledger != nil {
			emitRunSpan(i, res, time.Since(began).Nanoseconds())
		}
	}
	laneW := s.LaneWidth
	if laneW == 0 {
		laneW = DefaultLaneWidth
	}
	if laneW > vm.MaxLanes {
		laneW = vm.MaxLanes
	}
	if s.Model == fi.Transient && every > 0 && laneW > 1 {
		runLaneGroups(c, s, sc, plans, faultAgents, prof, stream, seedBase, laneW, runSolo, emitRunSpan, ledger != nil)
	} else {
		par.ForEach(len(plans), runSolo)
	}
	// Past the fork barrier every injection run has restored from its
	// checkpoint; recycle the snapshot buffers for the next campaign's
	// profiling pass.
	sim.ReleaseCheckpoints(cps)

	c.Baseline = baselineOf(golden)
	if ledger != nil {
		emitPropagation(ledger, specKey, obs.SurfaceInstr, c, nil)
	}
	return c
}

// runSurfaceCampaign executes a pluggable-surface campaign spec: the
// same NVBitFI-style structure as the instruction path — transient runs
// replay the golden seed and fork/splice against a checkpointed golden
// pass, permanent runs go cold with per-run seeds — but plans come from
// the surface's own step-space planner (fi.SurfacePlanner) instead of
// the instruction profile, and fork/detach points are the plans' Start
// steps directly. No profiling pass is needed at all.
func runSurfaceCampaign(l *Lab, s CampaignSpec) *Campaign {
	sp, ok := fi.SurfaceByName(s.Surface)
	if !ok {
		panic(fmt.Sprintf("lab: campaign surface %q is not registered", s.Surface))
	}
	sc := l.scenarioByName(s.Scenario)
	seedBase := s.Seed
	every := s.CheckpointEvery
	if every == 0 {
		every = DefaultCheckpointEvery
	}
	steps := int(sc.Duration * sim.Hz)

	n := s.Sizes.Transient
	if s.Model == fi.Permanent {
		n = s.Sizes.PermReps
	}
	plans := sp.Plans(rng.New(seedBase^0xfa017), nil, s.Target, s.Model, steps, s.Mode.Agents(), n)
	if s.Model == fi.Permanent && s.Sizes.PermStride > 1 {
		strided := plans[:0]
		for i, p := range plans {
			if i%s.Sizes.PermStride == 0 {
				strided = append(strided, p)
			}
		}
		plans = strided
	}

	var stream *sim.GoldenStream
	var cps []*sim.Checkpoint
	if s.Model == fi.Transient && every > 0 {
		res := sim.Run(sim.Config{Scenario: sc, Mode: s.Mode, Seed: seedBase, CheckpointEvery: every})
		stream = &sim.GoldenStream{Checkpoints: res.Checkpoints, Trace: res.Trace}
		cps = res.Checkpoints
	}
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
	ledger := l.Ledger()
	specKey := ""
	if ledger != nil {
		specKey = s.Key()
	}
	emitRunSpan := func(i int, res *sim.Result, execNs int64) {
		ledger.EmitSpan(obs.Span{
			Key:            fmt.Sprintf("%s/run-%03d", specKey, i),
			Phase:          "run",
			Cache:          obs.CacheComputed,
			ExecNs:         execNs,
			SimulatedSteps: []int{res.Exec.SimulatedFrom, res.Exec.SimulatedTo},
			ExitReason:     res.Exec.ExitReason,
			Surface:        s.Surface,
		})
	}
	runSolo := func(i int) {
		plan := plans[i]
		cfg := sim.Config{
			Scenario: sc,
			Mode:     s.Mode,
			Surface:  plan,
		}
		var began time.Time
		if ledger != nil {
			began = time.Now()
		}
		var res *sim.Result
		if s.Model == fi.Transient {
			cfg.Seed = seedBase
			cfg.Golden = stream
			cfg.DisableSplice = s.DisableSplice
			cfg.EarlyExitDivergence = s.EarlyExit
			cfg.Propagation = s.Propagation
			// Fork from the latest golden checkpoint at or before the
			// plan's start step (windowed surface plans are
			// step-decidable, so Start is the exact first step the fault
			// can act).
			var best *sim.Checkpoint
			for _, cp := range cps {
				if cp.Step > plan.Start() {
					break
				}
				best = cp
			}
			if best != nil {
				if forked, err := sim.RunFrom(best, cfg); err == nil {
					obs.C("campaign.runs_forked").Inc()
					res = forked
				}
			}
		} else {
			cfg.Seed = seedBase + 5000 + uint64(i)*104729
		}
		if res == nil {
			obs.C("campaign.runs_cold").Inc()
			res = sim.Run(cfg)
		}
		c.Runs[i] = RunRecord{Desc: plan.String(), Result: res}
		if ledger != nil {
			emitRunSpan(i, res, time.Since(began).Nanoseconds())
		}
	}
	laneW := s.LaneWidth
	if laneW == 0 {
		laneW = DefaultLaneWidth
	}
	if laneW > vm.MaxLanes {
		laneW = vm.MaxLanes
	}
	if s.Model == fi.Transient && every > 0 && laneW > 1 {
		runSurfaceLaneGroups(c, s, sc, plans, stream, seedBase, laneW, runSolo, emitRunSpan, ledger != nil)
	} else {
		par.ForEach(len(plans), runSolo)
	}
	sim.ReleaseCheckpoints(cps)

	c.Baseline = baselineOf(golden)
	if ledger != nil {
		emitPropagation(ledger, specKey, s.Surface, c, func(i int) []int {
			return fi.PlanWindow(plans[i])
		})
	}
	return c
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
// window, when non-nil, maps a run index to its plan's [start, end)
// activation window (fi.PlanWindow; nil for the instruction surface,
// whose reach is a dynamic instruction index).
func emitPropagation(ledger *obs.Ledger, specKey, surface string, c *Campaign, window func(i int) []int) {
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
		}
		if len(p.Subsystems) > 0 {
			rec.Subsystems = make(map[string]int, len(p.Subsystems))
			for _, h := range p.Subsystems {
				rec.Subsystems[h.Subsystem] = h.Step
			}
		}
		if window != nil {
			rec.Window = window(i)
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

// runSurfaceLaneGroups is the batched scheduler for pluggable-surface
// transient campaigns: the detach step of each lane is its plan's Start
// step — an exact bound, unlike the instruction path's conservative
// profile mapping — so lanes starting together share one prefix replay
// and lockstep their suffixes. Falls back to the solo fork path when a
// group fails validation (pure strategy; identical results either way).
func runSurfaceLaneGroups(c *Campaign, s CampaignSpec, sc *scenario.Scenario, plans []fi.SurfacePlan,
	stream *sim.GoldenStream, seedBase uint64, laneW int,
	runSolo func(int), emitRunSpan func(int, *sim.Result, int64), ledger bool) {

	order := make([]int, len(plans))
	for i := range plans {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return plans[order[a]].Start() < plans[order[b]].Start() })
	nGroups := (len(order) + laneW - 1) / laneW
	par.ForEach(nGroups, func(g int) {
		lo := g * laneW
		hi := lo + laneW
		if hi > len(order) {
			hi = len(order)
		}
		idxs := order[lo:hi]
		cfgs := make([]sim.Config, len(idxs))
		det := make([]int, len(idxs))
		for k, i := range idxs {
			cfgs[k] = sim.Config{
				Scenario:            sc,
				Mode:                s.Mode,
				Seed:                seedBase,
				Surface:             plans[i],
				Golden:              stream,
				DisableSplice:       s.DisableSplice,
				EarlyExitDivergence: s.EarlyExit,
				Propagation:         s.Propagation,
			}
			det[k] = plans[i].Start()
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
		perRunNs := time.Since(began).Nanoseconds() / int64(len(idxs))
		for k, i := range idxs {
			c.Runs[i] = RunRecord{Desc: plans[i].String(), Result: results[k]}
			if ledger {
				emitRunSpan(i, results[k], perRunNs)
			}
		}
	})
}

// DefaultLaneWidth is the lane-group size of batched transient campaign
// execution: up to this many injection runs share one fault-free prefix
// replay and step their suffixes in sim-level lockstep. Bounded by
// vm.MaxLanes; chosen so a group's agent machines stay comfortably in
// cache while the decode amortization is already near its asymptote.
const DefaultLaneWidth = 16

// runLaneGroups is the batched transient scheduler: plans are mapped to
// their planner-derived detach steps (-1 for a plan whose dynamic index
// the profiled stream never reaches), sorted so runs detaching together
// land in the same group, chunked into lane-width groups, and each group
// executed through sim.RunLanesFrom. A group that fails validation falls
// back to the solo fork path run by run — the results are identical
// either way (the lane-equivalence invariant), so the fallback is pure
// strategy too.
func runLaneGroups(c *Campaign, s CampaignSpec, sc *scenario.Scenario, plans []fi.Plan, faultAgents []int,
	prof *fi.Profile, stream *sim.GoldenStream, seedBase uint64, laneW int,
	runSolo func(int), emitRunSpan func(int, *sim.Result, int64), ledger bool) {

	nAgents := s.Mode.Agents()
	detach := make([]int, len(plans))
	order := make([]int, len(plans))
	for i, plan := range plans {
		step, ok := prof.ActivationStep(faultAgents[i]%nAgents, plan.Target, plan.DynIndex)
		if !ok {
			step = -1
		}
		detach[i] = step
		order[i] = i
	}
	// Sort by detach step (never-activating clones first — they cost one
	// trace copy each): equal steps become cohorts inside a group, and
	// near ones share most of the pack replay.
	sort.SliceStable(order, func(a, b int) bool { return detach[order[a]] < detach[order[b]] })
	nGroups := (len(order) + laneW - 1) / laneW
	par.ForEach(nGroups, func(g int) {
		lo := g * laneW
		hi := lo + laneW
		if hi > len(order) {
			hi = len(order)
		}
		idxs := order[lo:hi]
		cfgs := make([]sim.Config, len(idxs))
		det := make([]int, len(idxs))
		for k, i := range idxs {
			plan := plans[i]
			cfgs[k] = sim.Config{
				Scenario:            sc,
				Mode:                s.Mode,
				Seed:                seedBase,
				Fault:               &plan,
				FaultAgent:          faultAgents[i],
				Golden:              stream,
				DisableSplice:       s.DisableSplice,
				EarlyExitDivergence: s.EarlyExit,
				Propagation:         s.Propagation,
			}
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
			c.Runs[i] = RunRecord{Plan: plans[i], Result: results[k]}
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
// plan's activation step — the longest shareable fault-free prefix. The
// activation step comes from the profile's per-step instruction counts;
// the machine counters bound the writeback DynIndex stream from above,
// so the mapped step is never later than the true activation step
// (forking conservatively early is always safe). A plan whose DynIndex
// exceeds the agent's profiled stream never activates, so its run is
// golden-equivalent and any checkpoint works: use the latest.
func forkPoint(cps []*sim.Checkpoint, prof *fi.Profile, agent int, plan fi.Plan) *sim.Checkpoint {
	if len(cps) == 0 {
		return nil
	}
	step, ok := prof.ActivationStep(agent, plan.Target, plan.DynIndex)
	if !ok {
		return cps[len(cps)-1]
	}
	var best *sim.Checkpoint
	for _, cp := range cps {
		if cp.Step > step {
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
