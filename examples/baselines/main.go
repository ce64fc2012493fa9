// Baselines: run the same transient GPU fault under the three system
// designs the paper compares — DiverseAV (round-robin agents), FD-ADS
// (loosely-coupled full duplication) and a single agent with a temporal
// outlier detector — and show who detects it.
package main

import (
	"fmt"

	"diverseav/internal/core"
	"diverseav/internal/fi"
	"diverseav/internal/fi/instr"
	"diverseav/internal/lab"
	"diverseav/internal/scenario"
	"diverseav/internal/sim"
	"diverseav/internal/vm"
)

func main() {
	fmt.Println("training the three detectors (one long-route run each)...")
	l := lab.New()
	detRR := l.Detector(lab.DetectorSpec{Cfg: core.DefaultConfig(), Mode: sim.RoundRobin, Compare: core.CompareAlternating, PerRoute: 1, Seed: 42})
	detFD := l.Detector(lab.DetectorSpec{Cfg: core.DefaultConfig(), Mode: sim.Duplicate, Compare: core.CompareDuplicate, PerRoute: 1, Seed: 43})
	detSG := l.Detector(lab.DetectorSpec{Cfg: core.DefaultConfig(), Mode: sim.Single, Compare: core.CompareTemporal, PerRoute: 1, Seed: 44})

	// A permanent fault in the GPU's divider: every FDIV result has an
	// exponent bit flipped.
	plan := fi.Plan{Target: vm.GPU, Model: fi.Permanent, Opcode: vm.FDIV, Bit: 55}
	fmt.Printf("fault: %s, scenario: LeadSlowdown\n\n", plan)

	run := func(name string, mode sim.Mode, det *core.Detector, cmp core.CompareMode) {
		res := sim.Run(sim.Config{
			Scenario: scenario.LeadSlowdown(),
			Mode:     mode,
			Seed:     5,
			Surface:  instr.Plan{P: plan},
		})
		tr := res.Trace
		alarm, ok := det.Detect(tr, cmp)
		status := "no alarm"
		if ok {
			status = fmt.Sprintf("ALARM at t=%.2fs (%s channel)", float64(alarm.Step)/tr.Hz, alarm.Channel)
		}
		fmt.Printf("%-28s outcome=%-10s activations=%-8d %s\n", name, tr.Outcome, res.Activations, status)
	}
	run("DiverseAV (round-robin)", sim.RoundRobin, detRR, core.CompareAlternating)
	run("FD-ADS (duplicate)", sim.Duplicate, detFD, core.CompareDuplicate)
	run("Single agent (temporal)", sim.Single, detSG, core.CompareTemporal)

	fmt.Println("\nDiverseAV and FD both compare two agents; the single agent can only compare")
	fmt.Println("against its own past, which systematic corruption shifts along with the present.")
}
