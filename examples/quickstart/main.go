// Quickstart: run the lead-slowdown scenario with a DiverseAV-enabled
// ADS (two round-robin agents), train the error detector on a long
// route, and confirm that a fault-free drive completes safely with no
// alarm.
package main

import (
	"fmt"
	"log"

	"diverseav/internal/core"
	"diverseav/internal/lab"
	"diverseav/internal/scenario"
	"diverseav/internal/sim"
)

func main() {
	// 1. Train the DiverseAV detector on fault-free long-route driving
	//    (one run per route keeps this quick; use more for real use).
	fmt.Println("training detector on the long routes (~30s on one core)...")
	det := lab.New().Detector(lab.DetectorSpec{Cfg: core.DefaultConfig(), Mode: sim.RoundRobin, Compare: core.CompareAlternating, PerRoute: 1, Seed: 42})
	thr, brk, str := det.Global()
	fmt.Printf("learned global thresholds: throttle=%.3f brake=%.3f steer=%.4f\n", thr, brk, str)

	// 2. Run the lead-slowdown safety-critical scenario, fault-free.
	res := sim.Run(sim.Config{
		Scenario: scenario.LeadSlowdown(),
		Mode:     sim.RoundRobin,
		Seed:     1,
	})
	tr := res.Trace
	if tr.DUE() {
		log.Fatalf("unexpected DUE: %s", tr.Outcome)
	}
	fmt.Printf("golden run: outcome=%s duration=%.1fs final speed=%.2f m/s\n",
		tr.Outcome, tr.Duration(), tr.Steps[len(tr.Steps)-1].V)

	// 3. The detector must stay silent on a fault-free run.
	if alarm, ok := det.Detect(tr, core.CompareAlternating); ok {
		log.Fatalf("false alarm at t=%.2fs on %s", float64(alarm.Step)/tr.Hz, alarm.Channel)
	}
	fmt.Println("no alarm raised on the fault-free run — DiverseAV is quiet when the hardware is healthy")
}
