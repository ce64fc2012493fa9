package report

import (
	"fmt"
	"sort"
	"strings"

	"diverseav/internal/fi"
	"diverseav/internal/lab"
	"diverseav/internal/obs"
	"diverseav/internal/scenario"
	"diverseav/internal/sim"
	"diverseav/internal/stats"
	"diverseav/internal/vm"
)

// propagationSpecs declares one surface's traced comparison campaigns:
// the study's three GPU round-robin transient campaigns (one per
// safety-critical scenario) with the propagation tracer on. Transient
// only — the tracer needs the golden stream transient fork execution
// tracks against, and a permanent fault is live from step 0, so "when
// did the corruption first reach which subsystem" is only a question
// for transients.
func propagationSpecs(o Options, surface string) []lab.CampaignSpec {
	var specs []lab.CampaignSpec
	for si, sc := range scenario.SafetyCritical() {
		base := o.Seed + uint64(si)*1_000_000
		golden := lab.GoldenSpec{Scenario: sc.Name, Mode: sim.RoundRobin, N: o.Sizes.Golden, Seed: base + 1000}
		specs = append(specs, lab.CampaignSpec{
			Scenario: sc.Name, Mode: sim.RoundRobin, Target: vm.GPU, Model: fi.Transient,
			Sizes: o.Sizes, Seed: base + uint64(vm.GPU)*31 + uint64(fi.Transient)*57, Golden: golden,
			Surface:     surface,
			Propagation: true,
		})
	}
	return specs
}

// propSubsystems fixes the row order of the attribution table.
var propSubsystems = []string{
	obs.SubsystemAgent0, obs.SubsystemAgent1, obs.SubsystemCtrl,
	obs.SubsystemEnv, obs.SubsystemIMU, obs.SubsystemJitter, obs.SubsystemTrace,
}

// propBoundaries fixes the row order of the boundary table, shallowest
// first.
var propBoundaries = []string{obs.BoundaryState, obs.BoundaryControl, obs.BoundaryTrajectory}

// Propagation renders the fault-propagation flight recorder's findings:
// the same GPU round-robin transient campaign grid executed on every
// fault surface with the tracer on, aggregated into first-diverged-
// subsystem attribution, deepest-boundary breakdown ("masked at which
// boundary"), and activation-to-divergence latency per surface. The
// section is explicit-only (-e propagation): traced campaigns key
// separately from the golden report's manifest.
func Propagation(o Options) string {
	l := o.Lab
	if l == nil {
		l = lab.New()
	}
	perSurface := make(map[string][]lab.CampaignSpec, len(surfaceOrder))
	var specs []lab.Spec
	for _, name := range surfaceOrder {
		cs := propagationSpecs(o, name)
		perSurface[name] = cs
		for _, s := range cs {
			specs = append(specs, s)
		}
	}
	l.Require(specs...)

	type tally struct {
		runs, traced, reconv    int
		sdc, due, masked        int // verdicts of traced runs
		bySubsystem, byBoundary map[string]int
		latencies               []float64
	}
	tallies := make(map[string]*tally, len(surfaceOrder))
	for _, name := range surfaceOrder {
		t := &tally{bySubsystem: map[string]int{}, byBoundary: map[string]int{}}
		tallies[name] = t
		for _, cs := range perSurface[name] {
			c := l.Campaign(cs)
			for _, r := range c.Runs {
				t.runs++
				p := r.Result.Propagation
				if p == nil {
					continue
				}
				t.traced++
				if p.Reconverged {
					t.reconv++
				}
				t.bySubsystem[p.Subsystem]++
				t.byBoundary[p.Boundary()]++
				if p.ActivationStep >= 0 {
					t.latencies = append(t.latencies, float64(p.Step-p.ActivationStep))
				}
				switch {
				case r.Result.Trace.DUE():
					t.due++
				case c.Hazard(r.Result, 2):
					t.sdc++
				default:
					t.masked++
				}
			}
		}
	}

	var b strings.Builder
	b.WriteString("Fault propagation — first-divergence attribution (GPU round-robin transient campaigns, td = 2 m)\n")
	fmt.Fprintf(&b, "%-12s %6s %7s %7s %5s %5s %7s\n",
		"Surface", "Runs", "Traced", "Reconv", "SDC", "DUE", "Masked")
	for _, name := range surfaceOrder {
		t := tallies[name]
		fmt.Fprintf(&b, "%-12s %6d %7d %7d %5d %5d %7d\n",
			name, t.runs, t.traced, t.reconv, t.sdc, t.due, t.masked)
	}

	b.WriteString("\nFirst-diverged subsystem per surface\n")
	fmt.Fprintf(&b, "%-12s", "Subsystem")
	for _, name := range surfaceOrder {
		fmt.Fprintf(&b, " %12s", name)
	}
	b.WriteString("\n")
	for _, sub := range propSubsystems {
		fmt.Fprintf(&b, "%-12s", sub)
		for _, name := range surfaceOrder {
			fmt.Fprintf(&b, " %12d", tallies[name].bySubsystem[sub])
		}
		b.WriteString("\n")
	}

	b.WriteString("\nDeepest boundary crossed (masked-at-which-boundary)\n")
	fmt.Fprintf(&b, "%-12s", "Boundary")
	for _, name := range surfaceOrder {
		fmt.Fprintf(&b, " %12s", name)
	}
	b.WriteString("\n")
	for _, bd := range propBoundaries {
		fmt.Fprintf(&b, "%-12s", bd)
		for _, name := range surfaceOrder {
			fmt.Fprintf(&b, " %12d", tallies[name].byBoundary[bd])
		}
		b.WriteString("\n")
	}

	b.WriteString("\nActivation → first-divergence latency (steps)\n")
	fmt.Fprintf(&b, "%-12s %5s %7s %7s %7s\n", "Surface", "n", "p50", "p90", "max")
	for _, name := range surfaceOrder {
		lat := tallies[name].latencies
		if len(lat) == 0 {
			fmt.Fprintf(&b, "%-12s %5d %7s %7s %7s\n", name, 0, "-", "-", "-")
			continue
		}
		sort.Float64s(lat)
		fmt.Fprintf(&b, "%-12s %5d %7.0f %7.0f %7.0f\n",
			name, len(lat), stats.Percentile(lat, 50), stats.Percentile(lat, 90), lat[len(lat)-1])
	}
	return b.String()
}
