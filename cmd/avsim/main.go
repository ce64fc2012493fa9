// Command avsim runs a single driving scenario in any agent mode,
// optionally with an injected fault, and prints a run summary (or the
// full trace as JSON with -json).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"diverseav/internal/fi"
	"diverseav/internal/fi/instr"
	"diverseav/internal/obs"
	"diverseav/internal/scenario"
	"diverseav/internal/sensor"
	"diverseav/internal/sim"
	"diverseav/internal/viz"
	"diverseav/internal/vm"
)

func main() {
	var (
		scen      = flag.String("scenario", "LeadSlowdown", "scenario name (LeadSlowdown, GhostCutIn, FrontAccident, Town01-Route02, Town03-Route15, Town06-Route42)")
		mode      = flag.String("mode", "diverseav", "agent mode: single, diverseav, duplicate")
		seed      = flag.Uint64("seed", 1, "run seed")
		asJSON    = flag.Bool("json", false, "emit the full trace as JSON")
		view      = flag.Bool("view", false, "print a per-second trace table and a mid-run ASCII camera frame")
		target    = flag.String("fault-target", "", "inject a fault: CPU or GPU (empty = golden run)")
		model     = flag.String("fault-model", "transient", "fault model: transient or permanent")
		opcode    = flag.Int("fault-opcode", int(vm.FMUL), "opcode index for permanent faults")
		dyn       = flag.Uint64("fault-dyn", 1_000_000, "dynamic instruction index for transient faults")
		bit       = flag.Uint("fault-bit", 52, "bit position to XOR")
		telemetry = flag.String("telemetry", "", "write a JSONL run ledger (meta + end-of-run metrics) to this file")
		debugAddr = flag.String("debug-addr", "", "serve /debug/vars and /debug/pprof on this address")
	)
	flag.Parse()

	sess, err := obs.StartTelemetry("avsim", *telemetry, *debugAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "avsim:", err)
		os.Exit(1)
	}
	if addr := sess.DebugAddr(); addr != "" {
		fmt.Fprintf(os.Stderr, "avsim: debug server on http://%s/debug/vars\n", addr)
	}

	sc := scenario.ByName(*scen)
	if sc == nil {
		fmt.Fprintf(os.Stderr, "avsim: unknown scenario %q\n", *scen)
		os.Exit(2)
	}
	var m sim.Mode
	switch strings.ToLower(*mode) {
	case "single":
		m = sim.Single
	case "diverseav", "roundrobin", "dual":
		m = sim.RoundRobin
	case "duplicate", "fd":
		m = sim.Duplicate
	default:
		fmt.Fprintf(os.Stderr, "avsim: unknown mode %q\n", *mode)
		os.Exit(2)
	}

	cfg := sim.Config{Scenario: sc, Mode: m, Seed: *seed}
	var midFrame sensor.Frame
	if *view {
		mid := int(sc.Duration * sim.Hz / 2)
		cfg.StepHook = func(step int, _ *scenario.Env, frames *[3]sensor.Frame) {
			if step == mid {
				midFrame = append(sensor.Frame(nil), frames[0]...)
			}
		}
	}
	if *target != "" {
		plan := fi.Plan{Bit: *bit}
		switch strings.ToUpper(*target) {
		case "CPU":
			plan.Target = vm.CPU
		case "GPU":
			plan.Target = vm.GPU
		default:
			fmt.Fprintf(os.Stderr, "avsim: unknown fault target %q\n", *target)
			os.Exit(2)
		}
		if strings.ToLower(*model) == "permanent" {
			plan.Model = fi.Permanent
			plan.Opcode = vm.Opcode(*opcode)
		} else {
			plan.Model = fi.Transient
			plan.DynIndex = *dyn
		}
		cfg.Surface = instr.Plan{P: plan}
	}

	res := sim.Run(cfg)
	// The summary goes to stderr so it composes with -json on stdout.
	defer func() {
		if err := sess.Close(os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "avsim:", err)
		}
	}()
	tr := res.Trace
	if *view {
		if midFrame != nil {
			fmt.Println("center camera, mid-run:")
			fmt.Print(viz.FrameASCII(midFrame))
		}
		fmt.Print(viz.TraceSummary(tr))
		return
	}
	if *asJSON {
		if err := tr.Encode(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "avsim:", err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("scenario:  %s (%s mode, seed %d)\n", tr.Scenario, tr.Mode, tr.Seed)
	fmt.Printf("outcome:   %s after %.1fs (%d steps)\n", tr.Outcome, tr.Duration(), len(tr.Steps))
	if cfg.Surface != nil {
		fmt.Printf("fault:     %s (activations: %d)\n", tr.Fault, res.Activations)
	}
	if len(tr.Steps) > 0 {
		last := tr.Steps[len(tr.Steps)-1]
		fmt.Printf("final:     v=%.2f m/s pos=(%.1f, %.1f)\n", last.V, last.X, last.Y)
	}
	fmt.Printf("instr:     agent0 cpu=%d gpu=%d, agent1 cpu=%d gpu=%d\n",
		tr.InstrCPU[0], tr.InstrGPU[0], tr.InstrCPU[1], tr.InstrGPU[1])
}
