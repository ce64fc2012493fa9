// Faultdetect: inject a permanent GPU fault into the ghost-cut-in
// scenario and watch the DiverseAV error-detection engine raise an alarm
// from the divergence between the two round-robin agents, with the lead
// time to any resulting hazard.
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
	fmt.Println("training detector...")
	det := lab.New().Detector(lab.DetectorSpec{Cfg: core.DefaultConfig(), Mode: sim.RoundRobin, Compare: core.CompareAlternating, PerRoute: 1, Seed: 42})

	// A permanent fault in the GPU's fused-multiply-add unit: a high
	// mantissa bit of every FMA result is flipped, in both agents (the
	// processor is shared).
	plan := fi.Plan{Target: vm.GPU, Model: fi.Permanent, Opcode: vm.FMA, Bit: 51}
	fmt.Printf("injecting: %s\n", plan)

	res := sim.Run(sim.Config{
		Scenario: scenario.GhostCutIn(),
		Mode:     sim.RoundRobin,
		Seed:     3,
		Surface:  instr.Plan{P: plan},
	})
	tr := res.Trace
	fmt.Printf("faulty run: outcome=%s, fault activations=%d\n", tr.Outcome, res.Activations)

	alarm, ok := det.Detect(tr, core.CompareAlternating)
	if !ok {
		fmt.Println("no alarm: the corruption was masked at the actuation level")
		return
	}
	alarmT := float64(alarm.Step) / tr.Hz
	fmt.Printf("ALARM at t=%.2fs on the %s channel (divergence %.3f > limit %.3f)\n",
		alarmT, alarm.Channel, alarm.Value, alarm.Limit)
	if tr.Collided() {
		lead := float64(tr.CollisionStep-alarm.Step) / tr.Hz
		fmt.Printf("collision at t=%.2fs — lead detection time %.2fs (human reaction ≈ 0.82s)\n",
			float64(tr.CollisionStep)/tr.Hz, lead)
	} else {
		fmt.Println("no collision in this run; the alarm would hand over to the fail-back system early")
	}
}
