package report

import (
	"fmt"
	"strings"

	"diverseav/internal/campaign"
	"diverseav/internal/core"
	"diverseav/internal/fi/memfault"
	"diverseav/internal/scenario"
	"diverseav/internal/sim"
	"diverseav/internal/stats"
)

// AblationDetector quantifies the detector's design choices on the GPU
// campaigns: per-state threshold LUTs vs a single global threshold, and
// the sustained-exceedance (hold) requirement vs first-exceedance
// alarms. These are the design decisions DESIGN.md calls out beyond the
// paper's text.
func (s *Study) AblationDetector() string {
	camps := s.GPUCampaigns()
	var b strings.Builder
	b.WriteString("Ablation — detector design choices (GPU campaigns, td = 2 m)\n")
	eval := func(name string, det *core.Detector) {
		cells := campaign.Evaluate(det, core.CompareAlternating, camps, []float64{2}, []int{det.Cfg.RW})
		c := cells[0]
		fmt.Fprintf(&b, "%-34s P=%.2f R=%.2f F1=%.2f golden alarms=%d\n",
			name, c.Precision(), c.Recall(), c.F1(), c.GoldenAlarms)
	}
	eval("full detector", s.Det)
	eval("no per-state bins (global only)", s.Det.GlobalOnly())
	eval("no hold (first exceedance)", s.Det.WithHold(1))
	eval("no bins + no hold", s.Det.GlobalOnly().WithHold(1))
	return b.String()
}

// AblationOverlap sweeps the distributor's overlap fraction (§III-D
// footnote): sending some frames to both agents raises each agent's
// input rate — and the compute bill — while tightening the fault-free
// divergence between them.
func AblationOverlap(o Options) string {
	var b strings.Builder
	b.WriteString("Ablation — distributor overlap fraction (lead slowdown, fault-free)\n")
	b.WriteString("overlap  GPU-instr×  mean|Δthr|  p99|Δthr|  outcome\n")
	var baseline float64
	for _, ov := range []float64{0, 0.25, 0.5} {
		res := sim.Run(sim.Config{
			Scenario: scenario.LeadSlowdown(),
			Mode:     sim.RoundRobin,
			Seed:     o.Seed,
			Overlap:  ov,
		})
		instr := float64(res.Trace.InstrGPU[0] + res.Trace.InstrGPU[1])
		if baseline == 0 {
			baseline = instr
		}
		var dthr []float64
		for _, smp := range core.Divergences(res.Trace, core.CompareAlternating) {
			dthr = append(dthr, smp.DThrottle)
		}
		fmt.Fprintf(&b, "%6.2f   %9.2f   %9.4f  %9.4f  %s\n",
			ov, instr/baseline, stats.Mean(dthr), stats.Percentile(dthr, 99), res.Trace.Outcome)
	}
	b.WriteString("(higher overlap buys lower fault-free divergence at proportional compute cost)\n")
	return b.String()
}

// AblationECCOff samples the §VIII extension: uncorrected memory bit
// flips landing in the agents' fabric memory, classified by outcome.
func AblationECCOff(o Options) string {
	sc := scenario.LeadSlowdown()
	golden := sim.Run(sim.Config{Scenario: sc, Mode: sim.RoundRobin, Seed: o.Seed})
	n := o.Sizes.Transient
	if n < 6 {
		n = 6
	}
	masked, perturbed, due := 0, 0, 0
	for i := 0; i < n; i++ {
		mf := memfault.Plan{
			Agent: i % 2,
			Step:  100 + i*37,
			Addr:  (i * 2654435761) % 24576,
			Bit:   uint((i * 13) % 63),
		}
		res := sim.Run(sim.Config{Scenario: sc, Mode: sim.RoundRobin, Seed: o.Seed, Surface: mf})
		switch {
		case res.Trace.DUE():
			due++
		case tracesEqual(res, golden):
			masked++
		default:
			perturbed++
		}
	}
	return fmt.Sprintf("Extension §VIII — ECC-off memory bit flips (%d injections): masked=%d perturbed=%d crash/hang=%d\n",
		n, masked, perturbed, due)
}

func tracesEqual(a, b *sim.Result) bool {
	if len(a.Trace.Steps) != len(b.Trace.Steps) || a.Trace.Outcome != b.Trace.Outcome {
		return false
	}
	for i := range a.Trace.Steps {
		x, y := a.Trace.Steps[i], b.Trace.Steps[i]
		if x.Throttle != y.Throttle || x.Brake != y.Brake || x.Steer != y.Steer {
			return false
		}
	}
	return true
}
