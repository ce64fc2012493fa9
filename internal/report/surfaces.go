package report

import (
	"fmt"
	"strings"

	"diverseav/internal/campaign"
	"diverseav/internal/core"
	"diverseav/internal/fi"
	"diverseav/internal/lab"
	"diverseav/internal/scenario"
	"diverseav/internal/sim"
	"diverseav/internal/vm"
)

// surfaceOrder fixes the rendering order of the fault-surface
// comparison: the legacy instruction surface first, then the pluggable
// surfaces.
var surfaceOrder = []string{fi.SurfaceInstr, fi.SurfaceSensor, fi.SurfaceHallucinate}

// surfaceSpecs declares the comparison campaigns of one surface: the
// study's six GPU round-robin campaigns (2 models × 3 scenarios), with
// the surface stamped on. The instruction surface normalizes to the
// empty string, so its specs key exactly like the study's and a warm
// lab or disk cache serves them without re-simulation.
func surfaceSpecs(o Options, surface string) []lab.CampaignSpec {
	var specs []lab.CampaignSpec
	for si, sc := range scenario.SafetyCritical() {
		base := o.Seed + uint64(si)*1_000_000
		golden := lab.GoldenSpec{Scenario: sc.Name, Mode: sim.RoundRobin, N: o.Sizes.Golden, Seed: base + 1000}
		for _, model := range []fi.Model{fi.Permanent, fi.Transient} {
			specs = append(specs, lab.CampaignSpec{
				Scenario: sc.Name, Mode: sim.RoundRobin, Target: vm.GPU, Model: model,
				Sizes: o.Sizes, Seed: base + uint64(vm.GPU)*31 + uint64(model)*57, Golden: golden,
				Surface:     surface,
				Propagation: o.Propagation && model == fi.Transient,
			})
		}
	}
	return specs
}

// Surfaces renders the fault-surface comparison: the same GPU
// round-robin campaign grid executed on every fault surface, with the
// paper's outcome taxonomy (SDC / DUE / masked / inactive) per surface
// and fault model, plus the DiverseAV detector evaluated per surface at
// the headline configuration (td = 2 m, trained rw). The section is
// explicit-only (-e surfaces): it runs campaigns beyond the golden
// report's manifest.
func Surfaces(o Options) string {
	l := o.Lab
	if l == nil {
		l = lab.New()
	}
	detSpec := lab.DetectorSpec{Cfg: core.DefaultConfig(), Mode: sim.RoundRobin, Compare: core.CompareAlternating, PerRoute: o.Sizes.Training, Seed: o.Seed}
	perSurface := make(map[string][]lab.CampaignSpec, len(surfaceOrder))
	specs := []lab.Spec{detSpec}
	for _, name := range surfaceOrder {
		cs := surfaceSpecs(o, name)
		perSurface[name] = cs
		for _, s := range cs {
			specs = append(specs, s)
		}
	}
	l.Require(specs...)
	det := l.Detector(detSpec)

	var b strings.Builder
	b.WriteString("Fault surfaces — outcome taxonomy per surface (GPU round-robin campaigns, td = 2 m)\n")
	fmt.Fprintf(&b, "%-12s %-10s %7s %7s %5s %5s %7s %9s\n",
		"Surface", "Model", "Inject", "Active", "SDC", "DUE", "Masked", "Inactive")
	type tally struct{ total, active, sdc, due, masked, inactive int }
	camps := make(map[string][]*lab.Campaign, len(surfaceOrder))
	for _, name := range surfaceOrder {
		byModel := map[fi.Model]*tally{fi.Permanent: {}, fi.Transient: {}}
		for _, cs := range perSurface[name] {
			c := l.Campaign(cs)
			camps[name] = append(camps[name], c)
			t := byModel[c.Model]
			for _, r := range c.Runs {
				t.total++
				if r.Activated() {
					t.active++
				}
				switch {
				case r.Result.Trace.DUE():
					t.due++
				case !r.Activated():
					t.inactive++
				case c.Hazard(r.Result, 2):
					t.sdc++
				default:
					t.masked++
				}
			}
		}
		for _, model := range []fi.Model{fi.Permanent, fi.Transient} {
			t := byModel[model]
			fmt.Fprintf(&b, "%-12s %-10s %7d %7d %5d %5d %7d %9d\n",
				name, model, t.total, t.active, t.sdc, t.due, t.masked, t.inactive)
		}
	}
	b.WriteString("\nDetector per surface (DiverseAV alternating, td = 2 m, trained rw)\n")
	for _, name := range surfaceOrder {
		cells := campaign.Evaluate(det, core.CompareAlternating, camps[name], []float64{2}, []int{det.Cfg.RW})
		c := cells[0]
		fmt.Fprintf(&b, "%-12s P=%.2f R=%.2f F1=%.2f (TP=%d FP=%d FN=%d, golden alarms=%d)\n",
			name, c.Precision(), c.Recall(), c.F1(), c.TP, c.FP, c.FN, c.GoldenAlarms)
	}
	return b.String()
}
