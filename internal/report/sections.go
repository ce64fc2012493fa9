package report

import (
	"fmt"
	"strings"

	"diverseav/internal/fabric"
	"diverseav/internal/fi"
	"diverseav/internal/fi/instr"
	"diverseav/internal/kitti"
	"diverseav/internal/lab"
	"diverseav/internal/scenario"
	"diverseav/internal/sensor"
	"diverseav/internal/sim"
	"diverseav/internal/stats"
	"diverseav/internal/trace"
	"diverseav/internal/vm"
)

// Fig5a renders the KITTI-analogue sensor bit-diversity characterization
// (§V-A) and the semantic-consistency statistics.
func Fig5a(o Options) string {
	cfg := kitti.DefaultConfig()
	cfg.Seed = o.Seed
	seq := kitti.Generate(cfg)
	d := kitti.Measure(seq)
	var b strings.Builder
	b.WriteString("Fig 5a — real-world-analogue (KITTI-like) temporal bit diversity\n")
	row := func(name string, xs []float64, of int, paper string) {
		fmt.Fprintf(&b, "%-22s p50=%5.2f p90=%5.2f of %d bits   (paper: %s)\n",
			name, stats.Percentile(xs, 50), stats.Percentile(xs, 90), of, paper)
	}
	row("camera (per pixel)", d.CameraBits, 24, "8 / 13")
	row("IMU+GPS (per word)", d.IMUBits, 32, "11 / 15")
	row("LiDAR (per word)", d.LidarBits, 32, "14 / 18")
	b.WriteString("semantic consistency between consecutive frames:\n")
	diag := 75.5 // frame diagonal in pixels (64×40)
	fmt.Fprintf(&b, "%-22s p50=%5.2f p90=%5.2f px (%.2f%% / %.2f%% of diagonal; paper: 0.39%% / 1.70%%)\n",
		"2-D bbox center shift",
		stats.Percentile(d.BBoxShift, 50), stats.Percentile(d.BBoxShift, 90),
		stats.Percentile(d.BBoxShift, 50)/diag*100, stats.Percentile(d.BBoxShift, 90)/diag*100)
	fmt.Fprintf(&b, "%-22s p50=%5.2f p90=%5.2f m  (paper: 0.48 / 1.26 m)\n",
		"3-D center shift", stats.Percentile(d.Center3DShift, 50), stats.Percentile(d.Center3DShift, 90))
	return b.String()
}

// Fig5b renders the simulator camera bit diversity measured over a
// fault-free safety-critical run (§V-A, Fig 5b).
func Fig5b(o Options) string {
	var prev [3]sensor.Frame
	var diffs []float64
	res := sim.Run(sim.Config{
		Scenario: scenario.LeadSlowdown(),
		Mode:     sim.Single,
		Seed:     o.Seed,
		StepHook: func(step int, _ *scenario.Env, frames *[3]sensor.Frame) {
			for c := 0; c < 3; c++ {
				if prev[c] != nil {
					for _, n := range sensor.BitDiffPerPixel(prev[c], frames[c]) {
						diffs = append(diffs, float64(n))
					}
				} else {
					prev[c] = sensor.NewFrame()
				}
				copy(prev[c], frames[c])
			}
		},
	})
	_ = res
	var b strings.Builder
	b.WriteString("Fig 5b — simulator camera temporal bit diversity (3 cameras, 40 Hz)\n")
	fmt.Fprintf(&b, "per-pixel bit difference: p50=%.2f p90=%.2f of 24 bits (paper: 5 / 9)\n",
		stats.Percentile(diffs, 50), stats.Percentile(diffs, 90))
	return b.String()
}

// Fig2 renders the lead-slowdown throttle/CVIP traces: fault-free single
// vs DiverseAV (Fig 2-3) and under a permanent GPU fault (Fig 2-4).
func Fig2(o Options) string {
	sc := scenario.LeadSlowdown()
	single := sim.Run(sim.Config{Scenario: sc, Mode: sim.Single, Seed: o.Seed})
	dual := sim.Run(sim.Config{Scenario: sc, Mode: sim.RoundRobin, Seed: o.Seed})
	fault := fi.Plan{Target: vm.GPU, Model: fi.Permanent, Opcode: vm.FMUL, Bit: 52}
	faulty := sim.Run(sim.Config{Scenario: sc, Mode: sim.RoundRobin, Seed: o.Seed, Surface: instr.Plan{P: fault}})

	var b strings.Builder
	b.WriteString("Fig 2(3) — fault-free lead slowdown: throttle and CVIP, single vs DiverseAV\n")
	b.WriteString("t(s)   thr(orig) cvip(orig)  thr(ours) cvip(ours)\n")
	n := len(single.Trace.Steps)
	if len(dual.Trace.Steps) < n {
		n = len(dual.Trace.Steps)
	}
	for i := 0; i < n; i += 40 {
		so, sd := single.Trace.Steps[i], dual.Trace.Steps[i]
		fmt.Fprintf(&b, "%5.1f  %8.3f %9.1f  %9.3f %9.1f\n", so.T, so.Throttle, so.CVIP, sd.Throttle, sd.CVIP)
	}
	fmt.Fprintf(&b, "\nFig 2(4) — permanent GPU fault (%s): per-agent throttle in DiverseAV\n", fault)
	b.WriteString("t(s)   thr(agent0) thr(agent1) |diff|\n")
	steps := faulty.Trace.Steps
	for i := 1; i < len(steps); i += 40 {
		cur, prev := steps[i], steps[i-1]
		a, pb := cur.AgentID, prev.AgentID
		if a < 0 || pb < 0 || a == pb {
			continue
		}
		cmds := [2]float64{}
		cmds[a] = cur.Cmd[a].Throttle
		cmds[pb] = prev.Cmd[pb].Throttle
		d := cmds[0] - cmds[1]
		if d < 0 {
			d = -d
		}
		fmt.Fprintf(&b, "%5.1f  %11.3f %11.3f %6.3f\n", cur.T, cmds[0], cmds[1], d)
	}
	fmt.Fprintf(&b, "faulty run outcome: %s, fault activations: %d\n", faulty.Trace.Outcome, faulty.Activations)
	return b.String()
}

// Fig6 renders the trajectory-divergence boxplots: for each
// safety-critical scenario, the max divergence of golden runs against the
// mean original-ADS trajectory, for the original and DiverseAV systems.
func Fig6(o Options) string {
	var b strings.Builder
	b.WriteString("Fig 6 — max trajectory divergence vs mean original trajectory (golden runs)\n")
	l := lab.New()
	for si, sc := range scenario.SafetyCritical() {
		base := o.Seed + uint64(si)*977
		orig := l.Golden(lab.GoldenSpec{Scenario: sc.Name, Mode: sim.Single, N: o.Sizes.Golden, Seed: base})
		ours := l.Golden(lab.GoldenSpec{Scenario: sc.Name, Mode: sim.RoundRobin, N: o.Sizes.Golden, Seed: base + 13})
		baseline := sim.MeanTrajectory(tracesOf(orig))
		var dOrig, dOurs []float64
		for _, r := range orig {
			dOrig = append(dOrig, sim.MaxTrajectoryDivergence(r.Trace, baseline))
		}
		collisions := 0
		for _, r := range ours {
			dOurs = append(dOurs, sim.MaxTrajectoryDivergence(r.Trace, baseline))
			if r.Trace.Collided() {
				collisions++
			}
		}
		fmt.Fprintf(&b, "%-14s orig: %s\n", sc.Name, stats.Summarize(dOrig))
		fmt.Fprintf(&b, "%-14s ours: %s (collisions: %d)\n", "", stats.Summarize(dOurs), collisions)
	}
	b.WriteString("(paper: max divergence < 0.5 m, no collisions, no traffic violations)\n")
	return b.String()
}

// Table2 renders the resource-overhead comparison from one golden run per
// agent configuration.
func Table2(o Options) string {
	sc := scenario.LeadSlowdown()
	single := sim.Run(sim.Config{Scenario: sc, Mode: sim.Single, Seed: o.Seed})
	dual := sim.Run(sim.Config{Scenario: sc, Mode: sim.RoundRobin, Seed: o.Seed})
	dup := sim.Run(sim.Config{Scenario: sc, Mode: sim.Duplicate, Seed: o.Seed})

	rows := []struct {
		name string
		u    fabric.Usage
	}{
		{"Single Agent", fabric.Account(single.Trace, false)},
		{"DiverseAV", fabric.Account(dual.Trace, false)},
		{"FD*", fabric.Account(dup.Trace, true)},
	}
	var b strings.Builder
	b.WriteString("Table II — average system resources (paper: 4%/14%/431MB/198MB single; DiverseAV same compute, 2× memory; FD 2× processors)\n")
	fmt.Fprintf(&b, "%-14s %6s %6s %10s %10s %5s %5s\n", "", "CPU", "GPU", "RAM", "VRAM", "#CPU", "#GPU")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %5.1f%% %5.1f%% %9.1fKB %9.1fKB %5d %5d\n",
			r.name, r.u.CPUUtil*100, r.u.GPUUtil*100,
			float64(r.u.RAMBytes)/1024, float64(r.u.VRAMBytes)/1024, r.u.CPUs, r.u.GPUs)
	}
	b.WriteString("*: CPU and GPU utilization are per processor for FD.\n")
	return b.String()
}

func tracesOf(rs []*sim.Result) []*trace.Trace {
	out := make([]*trace.Trace, 0, len(rs))
	for _, r := range rs {
		out = append(out, r.Trace)
	}
	return out
}
