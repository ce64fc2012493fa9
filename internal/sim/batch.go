package sim

import (
	"fmt"
	"sort"

	"diverseav/internal/fi"
	"diverseav/internal/fi/instr"
)

// RunLanesFrom executes a group of transient injection runs as lanes
// sharing one fault-free prefix. Each lane i is the run Config
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
// Execution strategy, with the fault-free prefix shared across lanes:
//
//   - A detach<0 lane never fires its hook, so its run IS the golden
//     run: its result is a clone of the golden trace with the lane's
//     fault metadata stamped on — no simulation at all.
//   - One fault-free "pack" runner replays the golden prefix once,
//     jumping forward via golden-stream checkpoints where possible, and
//     snapshots at each distinct detach step.
//   - Each lane restores from the pack snapshot at its detach step and
//     runs its suffix through the ordinary solo loop; lanes sharing a
//     detach step restore from the same snapshot, one after another.
//     Reconvergence splicing and collision verdicts compose per lane,
//     and a lane whose injector goes quiescent narrows its hook scope
//     to nothing (fi/instr) and rejoins the hook-free fast path at once.
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
		// or before these lanes' detach step instead of stepping to it.
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
		for _, i := range order[gi:gj] {
			res, err := runLane(cfgs[i], snap, target)
			if err != nil {
				return nil, err
			}
			results[i] = res
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

// runLane executes one lane through the ordinary solo loop: restore
// the pack snapshot and run the suffix. Restore copies, so the lanes
// sharing a detach step all restore from one snapshot.
func runLane(cfg Config, snap *Checkpoint, start int) (*Result, error) {
	ln := newRunner(cfg)
	if err := ln.restore(snap); err != nil {
		return nil, err
	}
	return ln.run(start), nil
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
