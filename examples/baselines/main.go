// Baselines: run the same transient GPU fault under the three system
// designs the paper compares — DiverseAV (round-robin agents), FD-ADS
// (loosely-coupled full duplication) and a single agent with a temporal
// outlier detector — and show who detects it.
package main

import (
	"fmt"

	"diverseav/internal/campaign"
	"diverseav/internal/core"
	"diverseav/internal/fi"
	"diverseav/internal/fi/instr"
	"diverseav/internal/scenario"
	"diverseav/internal/sim"
	"diverseav/internal/vm"
)

func main() {
	fmt.Println("training the three detectors (one long-route run each)...")
	detRR := campaign.TrainDetector(core.DefaultConfig(), sim.RoundRobin, core.CompareAlternating, 1, 42)
	detFD := campaign.TrainDetector(core.DefaultConfig(), sim.Duplicate, core.CompareDuplicate, 1, 43)
	detSG := campaign.TrainDetector(core.DefaultConfig(), sim.Single, core.CompareTemporal, 1, 44)

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
