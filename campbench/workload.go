package main

import (
	"fmt"
	"strings"
	"time"

	"diverseav/internal/fi"
	"diverseav/internal/lab"
	"diverseav/internal/obs"
	"diverseav/internal/report"
	"diverseav/internal/scenario"
	"diverseav/internal/sim"
	"diverseav/internal/vm"
)

// variants is the size of the input catalogue: a seed selects variant
// seed mod variants, and reference.json holds the recorded digests of
// every variant, so any seed is checked against a recorded reference.
const variants = 10

// studySections are the report sections the study workload renders.
var studySections = []string{"table1", "fig7", "fig8", "missed", "compare"}

// size fixes how much work one timed iteration of a workload does.
type size struct {
	// Duration, when > 0, shortens the three safety-critical scenarios
	// to this many simulated seconds (registered in the lab under their
	// library names); 0 runs them at full length.
	Duration float64
	Sizes    lab.Sizes
}

// workload is one named benchmark input family.
type workload struct {
	name  string
	sizes map[string]size // by size label: "bench", "toy"
}

var workloads = []workload{
	{"transient", map[string]size{
		"bench": {Duration: 15, Sizes: lab.Sizes{Transient: 48, Golden: 1}},
		"toy":   {Duration: 3, Sizes: lab.Sizes{Transient: 4, Golden: 1}},
	}},
	{"permanent", map[string]size{
		"bench": {Duration: 15, Sizes: lab.Sizes{PermReps: 1, PermStride: 34, Golden: 1}},
		"toy":   {Duration: 3, Sizes: lab.Sizes{PermReps: 1, PermStride: 40, Golden: 1}},
	}},
	{"surface", map[string]size{
		"bench": {Duration: 15, Sizes: lab.Sizes{Transient: 4, Golden: 1}},
		"toy":   {Duration: 3, Sizes: lab.Sizes{Transient: 4, Golden: 1}},
	}},
	{"study", map[string]size{
		"bench": {Duration: 5, Sizes: lab.Sizes{Transient: 2, PermReps: 1, PermStride: 1000, Golden: 1, Training: 1}},
		"toy":   {Duration: 3, Sizes: lab.Sizes{Transient: 1, PermReps: 1, PermStride: 1000, Golden: 1, Training: 1}},
	}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// input is one generated workload instance: everything the program
// receives, derived from the workload, its size and the seed's variant.
type input struct {
	workload string
	size     size
	variant  int
	// scenarios are the scenarios the instance runs (shortened variants
	// when size.Duration is set).
	scenarios []*scenario.Scenario
	// campaigns lists the campaign specs of the campaign workloads, in
	// submission order; the study declares its own through report.
	campaigns []lab.CampaignSpec
	// study configures the study workload.
	study report.Options
}

func newInput(w workload, sz size, seed uint64) *input {
	in := &input{workload: w.name, size: sz, variant: int(seed % variants)}
	for _, sc := range scenario.SafetyCritical() {
		if sz.Duration > 0 {
			sc.Duration = sz.Duration
		}
		in.scenarios = append(in.scenarios, sc)
	}
	// One base seed per (variant, scenario): the GPU and CPU campaigns of
	// a scenario share it, and with it their golden set and profile.
	base := func(si int) uint64 { return 1_000_003*uint64(in.variant+1) + 10_007*uint64(si) }
	for si, sc := range in.scenarios {
		golden := lab.GoldenSpec{Scenario: sc.Name, Mode: sim.RoundRobin, N: sz.Sizes.Golden, Seed: base(si) + 1000}
		spec := lab.CampaignSpec{Scenario: sc.Name, Mode: sim.RoundRobin, Target: vm.GPU, Sizes: sz.Sizes, Seed: base(si), Golden: golden}
		switch w.name {
		case "transient", "permanent":
			spec.Model = fi.Transient
			if w.name == "permanent" {
				spec.Model = fi.Permanent
			}
			for _, target := range []vm.Device{vm.GPU, vm.CPU} {
				spec.Target = target
				in.campaigns = append(in.campaigns, spec)
			}
		case "surface":
			spec.Model = fi.Transient
			for _, surface := range []string{fi.SurfaceSensor, fi.SurfaceHallucinate} {
				spec.Surface = surface
				in.campaigns = append(in.campaigns, spec)
			}
		}
	}
	if w.name == "study" {
		in.study = report.BenchOptions()
		in.study.Sizes = sz.Sizes
		in.study.Seed = 2022 + uint64(in.variant)*7_000_003
	}
	return in
}

// newLab returns the lab an iteration runs against, with the instance's
// shortened scenarios registered under their library names.
func (in *input) newLab() *lab.Lab {
	l := lab.New()
	if in.size.Duration > 0 {
		for _, sc := range in.scenarios {
			l.RegisterScenario(sc)
		}
	}
	return l
}

// outcome is what one timed iteration produced.
type outcome struct {
	campaigns []*lab.Campaign
	report    string // study only
}

// runs counts the injection runs the outcome holds.
func (o *outcome) runs() int {
	n := 0
	for _, c := range o.campaigns {
		n += len(c.Runs)
	}
	return n
}

// execute is the timed section: the closed-loop client submits the
// instance to the lab and waits for it. Campaign workloads submit one
// campaign at a time, preceded by its golden set (and, for permanent
// campaigns, its shared profiling pass), each call wrapped in a
// benchmark-side span on led (nil when untraced). The study runs
// report.Generate exactly as cmd/experiments does.
func (in *input) execute(l *lab.Lab, led *obs.Ledger) (*outcome, error) {
	out := &outcome{}
	if in.workload == "study" {
		o := in.study
		o.Lab = l
		text, err := report.Generate(o, studySections)
		if err != nil {
			return nil, err
		}
		out.report = text
		// Collect the campaigns from the warm lab: every artifact is a
		// memory hit, so this runs no simulation and no scheduler job.
		s := report.NewStudy(o)
		for _, camps := range [][]*lab.Campaign{s.RR, s.FD, s.Single} {
			out.campaigns = append(out.campaigns, camps...)
		}
		return out, nil
	}
	span := func(phase, key string, fn func()) {
		computed := l.Stats().Computed
		start := time.Now()
		fn()
		exec := time.Since(start)
		cache := obs.CacheMemory
		if l.Stats().Computed > computed {
			cache = obs.CacheComputed
		}
		led.EmitSpan(obs.Span{Key: key, Phase: phase, Cache: cache, ExecNs: exec.Nanoseconds()})
	}
	for _, cs := range in.campaigns {
		span("golden", cs.Golden.Key(), func() { l.Golden(cs.Golden) })
		if cs.Model == fi.Permanent {
			ps := lab.ProfileSpec{Scenario: cs.Scenario, Mode: cs.Mode, Seed: cs.Seed}
			span("profile", ps.Key(), func() { l.Profile(ps) })
		}
		var c *lab.Campaign
		span("campaign", cs.Key(), func() { c = l.Campaign(cs) })
		out.campaigns = append(out.campaigns, c)
	}
	return out, nil
}

func (in *input) String() string {
	return fmt.Sprintf("%s variant %d", in.workload, in.variant)
}
