package sim

import (
	"fmt"
	"sort"
	"sync/atomic"

	"diverseav/internal/agent"
	"diverseav/internal/fi"
	"diverseav/internal/fi/instr"
	"diverseav/internal/trace"
	"diverseav/internal/vm"
)

// cohortRuns counts runCohort invocations; the lane-equivalence tests
// read it to prove the lockstep cohort path actually executed instead of
// silently degrading to per-lane solo runs.
var cohortRuns atomic.Uint64

// RunLanesFrom executes a group of transient injection runs as lockstep
// lanes sharing one fault-free prefix. Each lane i is the run Config
// cfgs[i] would produce cold; detach[i] is a step at or before the
// lane's fault can first act, or -1 for a lane whose fault provably
// never activates in this run. For instruction-surface lanes (fi/instr
// plans, transient only) the planner maps the plan's dynamic
// instruction index through the golden profile — a conservative-early
// bound, since the machine's writeback counter is bounded by its
// architectural counter. For step-space plans the plan's Start() step
// is the bound directly; step-space plans without a decidable start
// (Start() < 0) are rejected and must run solo.
//
// Execution strategy, with the per-step work shared across lanes:
//
//   - A detach<0 lane never fires its hook, so its run IS the golden
//     run: its result is a clone of the golden trace with the lane's
//     fault metadata stamped on — no simulation at all.
//   - One fault-free "pack" runner replays the golden prefix once,
//     jumping forward via golden-stream checkpoints where possible, and
//     snapshots at each distinct detach step.
//   - Lanes sharing a detach step form a cohort: restored from one
//     snapshot, they step the closed loop in sim-level lockstep, with
//     agent execution batched through vm.RunLanes (agent.StepLanes) so
//     instruction decode is amortized over the cohort. Reconvergence
//     splicing and early-exit verdicts compose per lane, and a lane
//     whose injector goes quiescent narrows its hook scope to nothing
//     (fi/instr) and rejoins the hook-free fast path at once.
//
// The hard invariant — pinned by the lane-equivalence matrix — is that
// results[i].Trace is byte-identical to Run(cfgs[i]) from scratch, and
// results[i].Activations matches. Like Config.Golden, lane execution is
// pure strategy and must never leak into artifact cache keys.
//
// cp, when non-nil, seeds the pack (it must precede every detach step);
// nil starts the pack cold. All lanes must share one run identity and
// one Golden stream.
func RunLanesFrom(cp *Checkpoint, cfgs []Config, detach []int) ([]*Result, error) {
	if len(cfgs) == 0 || len(cfgs) != len(detach) {
		return nil, fmt.Errorf("sim: RunLanesFrom: %d configs, %d detach steps", len(cfgs), len(detach))
	}
	if len(cfgs) > vm.MaxLanes {
		return nil, fmt.Errorf("sim: RunLanesFrom: %d lanes exceeds vm.MaxLanes (%d)", len(cfgs), vm.MaxLanes)
	}
	base := &cfgs[0]
	for i := range cfgs {
		c := &cfgs[i]
		ip, isInstr := c.Surface.(instr.Plan)
		switch {
		case c.Surface == nil:
			return nil, fmt.Errorf("sim: RunLanesFrom: lane %d is not an injection run", i)
		case isInstr && ip.P.Model != fi.Transient:
			return nil, fmt.Errorf("sim: RunLanesFrom: lane %d is not a transient injection run", i)
		case !isInstr && c.Surface.Start() < 0:
			// A step-space plan whose first possible activation step is
			// unknown has no provable detach bound; it must run solo.
			return nil, fmt.Errorf("sim: RunLanesFrom: lane %d surface plan has no decidable start step", i)
		case !isInstr && detach[i] < 0:
			// The never-activating proof (clone the golden trace) is
			// only established for instruction-surface plans, via the
			// machine's bounded writeback counter.
			return nil, fmt.Errorf("sim: RunLanesFrom: lane %d surface lane cannot be golden-cloned", i)
		case !isInstr && detach[i] > c.Surface.Start():
			return nil, fmt.Errorf("sim: RunLanesFrom: lane %d detaches at step %d after surface start %d", i, detach[i], c.Surface.Start())
		case c.Profile != nil || c.StepHook != nil:
			return nil, fmt.Errorf("sim: RunLanesFrom: lane %d carries a profile or step hook", i)
		case c.CheckpointEvery > 0:
			return nil, fmt.Errorf("sim: RunLanesFrom: lane %d emits checkpoints", i)
		case c.ForceVMTier0:
			return nil, fmt.Errorf("sim: RunLanesFrom: lane %d pins VM tier 0", i)
		case c.Scenario == nil:
			return nil, fmt.Errorf("sim: RunLanesFrom: lane %d has no scenario", i)
		case c.Scenario.Name != base.Scenario.Name || c.Mode != base.Mode ||
			c.Seed != base.Seed || c.Overlap != base.Overlap ||
			c.SensorNoiseStd != base.SensorNoiseStd || c.Golden != base.Golden:
			return nil, fmt.Errorf("sim: RunLanesFrom: lane %d disagrees with lane 0 on run identity", i)
		case detach[i] < 0 && (c.Golden == nil || c.Golden.Trace == nil):
			return nil, fmt.Errorf("sim: RunLanesFrom: lane %d never activates but has no golden trace to clone", i)
		case detach[i] >= int(c.Scenario.Duration*Hz):
			return nil, fmt.Errorf("sim: RunLanesFrom: lane %d detaches at step %d past the scenario end", i, detach[i])
		case cp != nil && detach[i] >= 0 && detach[i] < cp.Step:
			return nil, fmt.Errorf("sim: RunLanesFrom: lane %d detaches at step %d before checkpoint step %d", i, detach[i], cp.Step)
		}
	}
	if cp != nil && (base.Scenario.Name != cp.Scenario || base.Mode != cp.Mode ||
		base.Seed != cp.Seed || base.Overlap != cp.Overlap || base.SensorNoiseStd != cp.SensorNoiseStd) {
		return nil, fmt.Errorf("sim: RunLanesFrom: checkpoint identity mismatch (checkpoint %q)", cp.Scenario)
	}

	in := instruments()
	if in != nil {
		in.laneGroups.Inc()
	}
	results := make([]*Result, len(cfgs))
	order := make([]int, 0, len(cfgs))
	for i := range cfgs {
		if detach[i] < 0 {
			results[i] = cloneGolden(&cfgs[i])
			if in != nil {
				in.laneClones.Inc()
			}
			continue
		}
		order = append(order, i)
	}
	if len(order) == 0 {
		return results, nil
	}
	if in != nil {
		in.laneRuns.Add(uint64(len(order)))
	}
	sort.SliceStable(order, func(a, b int) bool { return detach[order[a]] < detach[order[b]] })

	// The pack: one hook-free fault-free runner replaying the golden
	// prefix. Every lane's detach step precedes its fault's first
	// possible writeback, so the pack's state at that step IS the lane's
	// state (fork-equivalence), and one replay serves the whole group.
	packCfg := *base
	packCfg.Surface = nil
	packCfg.Golden = nil
	packCfg.DisableSplice = false
	packCfg.EarlyExitDivergence = 0
	pack := newRunner(packCfg)
	pos := 0
	if cp != nil {
		if err := pack.restore(cp); err != nil {
			return nil, err
		}
		pos = cp.Step
	}
	stream := base.Golden

	for gi := 0; gi < len(order); {
		target := detach[order[gi]]
		gj := gi
		for gj < len(order) && detach[order[gj]] == target {
			gj++
		}
		// Jump over replay work: restore the latest golden checkpoint at
		// or before this cohort's detach step instead of stepping to it.
		if stream != nil {
			if gcp := latestAtOrBefore(stream, target); gcp != nil && gcp.Step > pos {
				if err := pack.restore(gcp); err != nil {
					return nil, err
				}
				pos = gcp.Step
				if in != nil {
					in.packRestores.Inc()
				}
			}
		}
		for pos < target {
			if res := pack.stepOnce(pos); res != nil {
				return nil, fmt.Errorf("sim: RunLanesFrom: golden replay ended at step %d before detach step %d", pos, target)
			}
			pos++
			if in != nil {
				in.packSteps.Inc()
			}
		}
		snap := pack.snapshot(target)
		if gj-gi == 1 {
			i := order[gi]
			res, err := runLane(cfgs[i], snap, target)
			if err != nil {
				return nil, err
			}
			results[i] = res
		} else {
			cohort := make([]Config, 0, gj-gi)
			for _, i := range order[gi:gj] {
				cohort = append(cohort, cfgs[i])
			}
			out, err := runCohort(cohort, snap, target)
			if err != nil {
				return nil, err
			}
			for k, i := range order[gi:gj] {
				results[i] = out[k]
			}
		}
		ReleaseCheckpoints([]*Checkpoint{snap})
		gi = gj
	}
	return results, nil
}

// cloneGolden resolves a never-activating lane: an injector whose
// dynamic index the run's instruction stream never reaches returns zero
// masks forever, so the lane's execution is the golden execution and its
// trace is the golden trace with the lane's fault metadata stamped on.
// The whole run costs one trace copy.
func cloneGolden(cfg *Config) *Result {
	g := cfg.Golden.Trace
	tr := g.Snapshot()
	tr.Fault = cfg.Surface.String()
	return &Result{
		Trace: tr,
		Exec: ExecInfo{
			ExitReason:   ExitSplice,
			SplicedSteps: len(g.Steps),
		},
	}
}

// runLane executes a single-lane cohort through the ordinary solo loop:
// restore the pack snapshot and run the suffix.
func runLane(cfg Config, snap *Checkpoint, start int) (*Result, error) {
	ln := newRunner(cfg)
	if err := ln.restore(snap); err != nil {
		return nil, err
	}
	return ln.run(start), nil
}

// runCohort steps several lanes sharing one detach step through the
// closed loop in sim-level lockstep. Each phase of the step runs across
// all live lanes before the next phase starts, which lets the agent
// phase hand every lane's machine for a given agent id to vm.RunLanes in
// one call — one instruction decode amortized over the cohort. A lane
// leaves the cohort when it splices, collides, DUEs, or early-exits;
// the rest keep stepping.
func runCohort(cfgs []Config, snap *Checkpoint, start int) ([]*Result, error) {
	n := len(cfgs)
	lanes := make([]*runner, n)
	for i := range cfgs {
		lanes[i] = newRunner(cfgs[i])
		if err := lanes[i].restore(snap); err != nil {
			return nil, err
		}
		lanes[i].start = start
	}
	cohortRuns.Add(1)
	if in := instruments(); in != nil {
		in.laneCohorts.Inc()
		in.laneCohortN.Add(uint64(n))
	}

	res := make([]*Result, n)
	live := n
	steps := lanes[0].steps
	nAgents := len(lanes[0].agents)
	// Batched agent-phase scratch; ins must not grow past its capacity
	// (pointers into it are handed to StepLanes).
	ags := make([]*agent.Agent, 0, n)
	ins := make([]agent.Input, 0, n)
	inPtrs := make([]*agent.Input, 0, n)
	idxs := make([]int, 0, n)

	for step := start; live > 0 && step < steps; step++ {
		// Propagation probe, per lane (mirrors the solo run loop: before
		// the splice probe, and under DisableSplice too).
		for i, ln := range lanes {
			if res[i] == nil && ln.prop != nil && step > start {
				ln.probeProp(step)
			}
		}
		// Reconvergence probe, per lane (mirrors the solo run loop).
		for i, ln := range lanes {
			if res[i] != nil || ln.golden == nil || ln.cfg.DisableSplice || step == start {
				continue
			}
			if out := ln.trySplice(step, start); out != nil {
				res[i] = out
				live--
			}
		}
		if live == 0 {
			break
		}
		// World phase: NPCs, physics, rendering, per-step scratch.
		for i, ln := range lanes {
			if res[i] == nil {
				ln.stepWorld(step)
				ln.stepCmds = [2]trace.Cmd{}
			}
		}
		// Agent phase, batched: for each agent id receiving this frame,
		// collect the live lanes' inputs (agentInput per lane keeps each
		// lane's distribution latches and jitter stream aligned with its
		// solo loop) and execute the pipeline across lanes in lockstep.
		for id := 0; id < nAgents; id++ {
			if !receives(lanes[0].cfg.Mode, lanes[0].cfg.Overlap, id, step) {
				continue
			}
			ags, ins, inPtrs, idxs = ags[:0], ins[:0], inPtrs[:0], idxs[:0]
			for i, ln := range lanes {
				if res[i] != nil {
					continue
				}
				ags = append(ags, ln.agents[id])
				ins = append(ins, ln.agentInput(id, step))
				idxs = append(idxs, i)
			}
			if len(ags) == 0 {
				break
			}
			for k := range ins {
				inPtrs = append(inPtrs, &ins[k])
			}
			outs, errs := agent.StepLanes(ags, inPtrs)
			for k, i := range idxs {
				ln := lanes[i]
				if errs[k] != nil {
					finishDUE(ln.tr, ln.env, step, errs[k])
					res[i] = ln.finish(start)
					live--
				} else {
					ln.applyAgentOut(id, step, inPtrs[k], &outs[k])
				}
			}
		}
		// Finish phase: actuation, trace record, collision and early-exit
		// verdicts.
		for i, ln := range lanes {
			if res[i] != nil {
				continue
			}
			if out := ln.stepFinish(step); out != nil {
				res[i] = out
				live--
			}
		}
	}
	for i, ln := range lanes {
		if res[i] == nil {
			res[i] = ln.finish(start)
		}
	}
	return res, nil
}

// latestAtOrBefore returns the latest golden checkpoint taken at or
// before step, or nil (the pack's jump target; contrast GoldenStream.at,
// the splice probe's exact-step lookup).
func latestAtOrBefore(g *GoldenStream, step int) *Checkpoint {
	lo, hi := 0, len(g.Checkpoints)-1
	var best *Checkpoint
	for lo <= hi {
		mid := (lo + hi) / 2
		if cp := g.Checkpoints[mid]; cp.Step <= step {
			best = cp
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return best
}
