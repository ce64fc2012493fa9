package main

import (
	"bytes"
	"runtime"
	"time"

	"diverseav/internal/agent"
	"diverseav/internal/campaign"
	"diverseav/internal/core"
	"diverseav/internal/lab"
	"diverseav/internal/obs"
	"diverseav/internal/report"
	"diverseav/internal/scenario"
	"diverseav/internal/sensor"
	"diverseav/internal/sim"
)

// metric names one printed figure and its unit.
type metric struct{ name, unit string }

// endToEnd are the metrics every untraced run prints; failed_frac is
// printed in the table only, since it is zero whenever the program is
// right (the result line carries it as failed/attempted).
var endToEnd = []metric{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"injections_per_s", "1/s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run prints. Every ratio is followed
// or preceded by its base counts.
var perLayer = []metric{
	// lab: job spans from the ledger (the scheduler's for the study,
	// the benchmark's own around each lab call for campaign workloads).
	{"lab.jobs", "count"},
	{"lab.exec_s.total", "s"},
	{"lab.exec_s.detector", "s"},
	{"lab.exec_s.golden", "s"},
	{"lab.exec_s.profile", "s"},
	{"lab.exec_s.campaign", "s"},
	{"lab.queue_wait_s", "s"},
	{"lab.concurrency", "ratio"},
	{"traced.wall_s", "s"},
	{"traced.cpu_s", "s"},
	// par
	{"par.gomaxprocs", "count"},
	{"par.busy_frac", "ratio"},
	{"par.recruited", "count"},
	{"par.inline", "count"},
	// sim
	{"campaign.runs", "count"},
	{"sim.steps", "count"},
	{"sim.trace_steps", "count"},
	{"sim.simulated_frac", "ratio"},
	{"sim.runs_spliced", "count"},
	{"sim.runs_spliced_frac", "ratio"},
	{"sim.lane_clones", "count"},
	{"sim.pack_steps", "count"},
	{"sim.checkpoints", "count"},
	{"sim.checkpoint_reuse", "count"},
	{"sim.checkpoint_reuse_frac", "ratio"},
	{"sim.cold_step_us", "us"},
	{"sim.fork_ms", "ms"},
	// vm
	{"vm.instr_total", "count"},
	{"vm.fused_frac", "ratio"},
	{"vm.batched_frac", "ratio"},
	{"vm.hooked_frac", "ratio"},
	// agent, sensor
	{"agent.frame_us.tier1", "us"},
	{"agent.frame_us.tier0", "us"},
	{"sensor.render_us", "us"},
	// fi
	{"fi.activated_runs", "count"},
	{"fi.activation_frac", "ratio"},
	// core, report
	{"core.evaluate_s", "s"},
	{"report.sections_s", "s"},
	// obs
	{"untraced.wall_s", "s"},
	{"obs.traced_overhead_frac", "ratio"},
}

func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counterLayers derives the per-layer figures that come from the
// traced iteration itself: the obs snapshot taken right after the timed
// section, the ledger's job spans, and the outcome. obs.traced_overhead_frac
// and untraced.wall_s need the untraced iterations and are filled in by
// the parent.
func counterLayers(snap map[string]int64, spans []obs.Span, out *outcome, wall, cpu float64) map[string]float64 {
	m := map[string]float64{}
	c := func(name string) float64 { return float64(snap[name]) }

	for _, s := range spans {
		if s.Phase == "run" {
			continue // per-injection spans nest inside campaign jobs
		}
		sec := float64(s.ExecNs) / 1e9
		m["lab.jobs"]++
		m["lab.exec_s.total"] += sec
		m["lab.exec_s."+s.Phase] += sec
		m["lab.queue_wait_s"] += float64(s.QueueNs) / 1e9
	}
	m["lab.concurrency"] = frac(m["lab.exec_s.total"], wall)
	m["traced.wall_s"] = wall
	m["traced.cpu_s"] = cpu

	procs := float64(runtime.GOMAXPROCS(0))
	m["par.gomaxprocs"] = procs
	m["par.busy_frac"] = frac(cpu, wall*procs)
	m["par.recruited"] = c("par.recruited")
	m["par.inline"] = c("par.inline")

	// Trace steps returned: every injection run's trace, plus each
	// distinct golden set (campaigns of one scenario share theirs).
	runs, traceSteps, activated := 0.0, 0.0, 0.0
	goldens := map[*sim.Result]bool{}
	for _, cp := range out.campaigns {
		for _, r := range cp.Runs {
			runs++
			traceSteps += float64(len(r.Result.Trace.Steps))
			if r.Activated() {
				activated++
			}
		}
		for _, g := range cp.Golden {
			if !goldens[g] {
				goldens[g] = true
				traceSteps += float64(len(g.Trace.Steps))
			}
		}
	}
	m["campaign.runs"] = runs
	m["sim.steps"] = c("sim.steps")
	m["sim.trace_steps"] = traceSteps
	m["sim.simulated_frac"] = frac(c("sim.steps"), traceSteps)
	m["sim.runs_spliced"] = c("sim.runs_spliced")
	m["sim.runs_spliced_frac"] = frac(c("sim.runs_spliced"), runs)
	m["sim.lane_clones"] = c("sim.lane_clones")
	m["sim.pack_steps"] = c("sim.pack_steps")
	m["sim.checkpoints"] = c("sim.checkpoints")
	m["sim.checkpoint_reuse"] = c("sim.checkpoint_reuse")
	m["sim.checkpoint_reuse_frac"] = frac(c("sim.checkpoint_reuse"), c("sim.checkpoints"))

	instr := c("vm.instr_fused") + c("vm.instr_scalar") + c("vm.instr_hooked") + c("vm.instr_batched")
	m["vm.instr_total"] = instr
	m["vm.fused_frac"] = frac(c("vm.instr_fused"), instr)
	m["vm.batched_frac"] = frac(c("vm.instr_batched"), instr)
	m["vm.hooked_frac"] = frac(c("vm.instr_hooked"), instr)

	m["fi.activated_runs"] = activated
	m["fi.activation_frac"] = frac(activated, runs)
	return m
}

// Probe sample counts: enough that each timing has a tail percentile
// with ten samples beyond it.
const (
	frameSamples = 200
	forkSamples  = 24
	evalSamples  = 24
)

// probeTimings times public calls of each layer on inputs taken from
// the workload instance, after the timed section:
//   - sim.cold_step_us: per-step time of a cold golden sim.Run, from the
//     intervals between StepHook calls;
//   - sim.fork_ms: sim.RunFrom from the mid checkpoint of that run;
//   - agent.frame_us.tier{0,1}: agent.Step on the run's camera frames;
//   - sensor.render_us: sensor.Render of the run's scenes;
//   - core.evaluate_s and report.sections_s (study only): campaign.Evaluate
//     of the study's campaigns over its TD × RW grid, and report.Generate
//     of its sections, both against the warm lab.
func probeTimings(in *input, l *lab.Lab) map[string]timing {
	var steps, frames []float64
	var inputs []*agent.Input
	var scenes []*sensor.Scene
	seed := 7 + uint64(in.variant)
	for _, sc := range in.scenarios {
		last := time.Time{}
		sim.Run(sim.Config{Scenario: sc, Mode: sim.RoundRobin, Seed: seed,
			StepHook: func(step int, env *scenario.Env, fr *[3]sensor.Frame) {
				now := time.Now()
				if !last.IsZero() {
					steps = append(steps, float64(now.Sub(last).Nanoseconds())/1e3)
				}
				last = now
				if step%8 == 0 {
					inputs = append(inputs, &agent.Input{
						Center: bytes.Clone(fr[0]), Left: bytes.Clone(fr[1]), Right: bytes.Clone(fr[2]),
						Speed: env.Ego.State.V, Dt: 0.05, SpeedLimit: 20, FrameIndex: step,
					})
					scenes = append(scenes, sceneOf(env, step, seed))
				}
			}})
	}
	t := map[string]timing{"sim.cold_step_us": summarize(steps)}

	for _, tier := range []int{1, 0} {
		ag := agent.New("campbench")
		ag.Machine().SetMaxTier(tier)
		var xs []float64
		for len(xs) < frameSamples {
			for _, fin := range inputs {
				start := time.Now()
				ag.Step(fin) // a trap is a valid agent outcome; only its time matters here
				xs = append(xs, float64(time.Since(start).Nanoseconds())/1e3)
			}
		}
		if tier == 1 {
			t["agent.frame_us.tier1"] = summarize(xs)
		} else {
			t["agent.frame_us.tier0"] = summarize(xs)
		}
	}

	frame := sensor.NewFrame()
	for len(frames) < frameSamples {
		for _, sc := range scenes {
			start := time.Now()
			sensor.Render(sensor.CamCenter, sc, frame)
			frames = append(frames, float64(time.Since(start).Nanoseconds())/1e3)
		}
	}
	t["sensor.render_us"] = summarize(frames)

	cfg := sim.Config{Scenario: in.scenarios[0], Mode: sim.RoundRobin, Seed: seed}
	cpCfg := cfg
	cpCfg.CheckpointEvery = lab.DefaultCheckpointEvery
	res := sim.Run(cpCfg)
	var forks []float64
	if len(res.Checkpoints) > 0 {
		cp := res.Checkpoints[len(res.Checkpoints)/2]
		for i := 0; i < forkSamples; i++ {
			start := time.Now()
			if _, err := sim.RunFrom(cp, cfg); err == nil {
				forks = append(forks, float64(time.Since(start).Nanoseconds())/1e6)
			}
		}
		sim.ReleaseCheckpoints(res.Checkpoints)
	}
	t["sim.fork_ms"] = summarize(forks)

	if in.workload == "study" {
		o := in.study
		o.Lab = l
		s := report.NewStudy(o)
		var evals, sections []float64
		for i := 0; i < evalSamples; i++ {
			start := time.Now()
			campaign.Evaluate(s.Det, core.CompareAlternating, s.RR, o.TDs, o.RWs)
			campaign.Evaluate(s.FDDet, core.CompareDuplicate, s.FD, o.TDs, o.RWs)
			campaign.Evaluate(s.SingleDet, core.CompareTemporal, s.Single, o.TDs, o.RWs)
			evals = append(evals, time.Since(start).Seconds())
			start = time.Now()
			report.Generate(o, studySections)
			sections = append(sections, time.Since(start).Seconds())
		}
		t["core.evaluate_s"] = summarize(evals)
		t["report.sections_s"] = summarize(sections)
	}
	return t
}

// sceneOf rebuilds the rasterizer input the simulator renders at this
// step, from the public environment state (stop bars omitted).
func sceneOf(env *scenario.Env, step int, seed uint64) *sensor.Scene {
	st, _ := env.Route.Path.Project(env.Ego.State.Pose.Pos)
	sc := &sensor.Scene{
		EgoPose:           env.Ego.State.Pose,
		Route:             env.Route.Path,
		RouteStation:      st,
		RouteCenterOffset: 1.75,
		RoadHalfWidth:     3.5,
		LaneMarkOffsets:   []float64{-3.5, 0, 3.5},
		Step:              step,
		NoiseSeed:         seed,
		NoiseStd:          1.2,
	}
	for _, n := range env.NPCs {
		v := n.Follower.Vehicle
		sc.Obstacles = append(sc.Obstacles, sensor.RenderObstacle{Pose: v.State.Pose, HalfL: v.HalfL, HalfW: v.HalfW, Braking: n.Braking})
	}
	return sc
}
