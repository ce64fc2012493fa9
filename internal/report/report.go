// Package report regenerates every table and figure of the paper's
// evaluation as text reports: it orchestrates detector training, the
// twelve fault-injection campaigns, the baseline-comparison campaigns and
// the characterization experiments, and formats the results. Both
// cmd/experiments and the repository benchmarks drive this package.
//
// The heavy lifting is declared against internal/lab: NewStudy builds
// the full set of artifact specs (three detectors, three golden sets per
// scenario, eighteen campaigns) and hands them to the lab scheduler,
// which runs independent jobs concurrently and memoizes shared
// artifacts. Collection order — and therefore every report byte — is
// fixed by the spec lists, not by job completion order.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"diverseav/internal/campaign"
	"diverseav/internal/core"
	"diverseav/internal/fi"
	"diverseav/internal/lab"
	"diverseav/internal/scenario"
	"diverseav/internal/sim"
	"diverseav/internal/stats"
	"diverseav/internal/vm"
)

// Options configures a study.
type Options struct {
	Sizes lab.Sizes
	TDs   []float64
	RWs   []int
	Seed  uint64
	// Log receives progress lines (nil = silent).
	Log io.Writer
	// Lab is the artifact store/scheduler the study runs against. Nil
	// selects a fresh in-memory lab; supply one (possibly disk-backed,
	// see lab.SetDisk) to share artifacts across studies or invocations.
	Lab *lab.Lab
	// Surface selects the fault surface of every campaign in the study
	// (see fi.SurfaceNames). The empty string selects the legacy
	// instruction surface, keeping every artifact key and report byte
	// identical to pre-surface builds.
	Surface string
	// Propagation turns on the fault-propagation tracer in every
	// transient campaign of the study. The tracer is read-only, so the
	// report text is byte-identical either way (the propagation
	// byte-identity test pins it); what changes is the artifact — traced
	// campaigns carry per-run attribution records and key separately.
	Propagation bool
}

// DefaultOptions is the scale used by cmd/experiments.
func DefaultOptions() Options {
	return Options{
		Sizes: lab.DefaultSizes(),
		TDs:   []float64{1, 2, 3, 4, 5},
		RWs:   core.DefaultRWs(),
		Seed:  2022,
	}
}

// BenchOptions keeps a full study inside a few minutes on one core.
func BenchOptions() Options {
	o := DefaultOptions()
	o.Sizes = lab.BenchSizes()
	o.TDs = []float64{1, 2, 3}
	o.RWs = []int{3, 10, 30}
	return o
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// Study holds everything the campaign-based sections need: trained
// detectors and the executed campaigns in all three agent modes.
type Study struct {
	Opts Options
	// Lab is the store the study's artifacts live in.
	Lab *lab.Lab
	// Detectors per comparison scheme, trained on the fault-free long
	// routes in the matching agent mode.
	Det       *core.Detector // DiverseAV (alternating)
	FDDet     *core.Detector // full-duplication baseline
	SingleDet *core.Detector // single-agent temporal baseline
	// RR holds the twelve DiverseAV campaigns (2 targets × 2 models × 3
	// scenarios); FD and Single hold the GPU campaigns of the baselines.
	RR     []*lab.Campaign
	FD     []*lab.Campaign
	Single []*lab.Campaign
}

// studySpecs is the study's declarative artifact manifest. Every seed is
// written out explicitly (they predate the lab and are pinned by the
// golden report test): campaigns of the same scenario and mode share one
// golden set, exactly like the paper's 50 golden runs per scenario.
type studySpecs struct {
	det, fdDet, singleDet lab.DetectorSpec
	rr, fd, single        []lab.CampaignSpec
}

func buildSpecs(o Options) studySpecs {
	var sp studySpecs
	sp.det = lab.DetectorSpec{Cfg: core.DefaultConfig(), Mode: sim.RoundRobin, Compare: core.CompareAlternating, PerRoute: o.Sizes.Training, Seed: o.Seed}
	sp.fdDet = lab.DetectorSpec{Cfg: core.DefaultConfig(), Mode: sim.Duplicate, Compare: core.CompareDuplicate, PerRoute: o.Sizes.Training, Seed: o.Seed + 101}
	sp.singleDet = lab.DetectorSpec{Cfg: core.DefaultConfig(), Mode: sim.Single, Compare: core.CompareTemporal, PerRoute: o.Sizes.Training, Seed: o.Seed + 202}

	for si, sc := range scenario.SafetyCritical() {
		base := o.Seed + uint64(si)*1_000_000
		goldenRR := lab.GoldenSpec{Scenario: sc.Name, Mode: sim.RoundRobin, N: o.Sizes.Golden, Seed: base + 1000}
		for _, target := range []vm.Device{vm.GPU, vm.CPU} {
			for _, model := range []fi.Model{fi.Permanent, fi.Transient} {
				sp.rr = append(sp.rr, lab.CampaignSpec{
					Scenario: sc.Name, Mode: sim.RoundRobin, Target: target, Model: model,
					Sizes: o.Sizes, Seed: base + uint64(target)*31 + uint64(model)*57, Golden: goldenRR,
					Surface:     o.Surface,
					Propagation: o.Propagation && model == fi.Transient,
				})
			}
		}
		// Baseline campaigns: GPU faults only (the paper's §VI
		// comparison is on the GPU campaigns, where SDCs occur).
		goldenFD := lab.GoldenSpec{Scenario: sc.Name, Mode: sim.Duplicate, N: o.Sizes.Golden, Seed: base + 2000}
		goldenSG := lab.GoldenSpec{Scenario: sc.Name, Mode: sim.Single, N: o.Sizes.Golden, Seed: base + 3000}
		for _, model := range []fi.Model{fi.Permanent, fi.Transient} {
			sp.fd = append(sp.fd, lab.CampaignSpec{
				Scenario: sc.Name, Mode: sim.Duplicate, Target: vm.GPU, Model: model,
				Sizes: o.Sizes, Seed: base + 4000 + uint64(model), Golden: goldenFD,
				Surface:     o.Surface,
				Propagation: o.Propagation && model == fi.Transient,
			})
			sp.single = append(sp.single, lab.CampaignSpec{
				Scenario: sc.Name, Mode: sim.Single, Target: vm.GPU, Model: model,
				Sizes: o.Sizes, Seed: base + 5000 + uint64(model), Golden: goldenSG,
				Surface:     o.Surface,
				Propagation: o.Propagation && model == fi.Transient,
			})
		}
	}
	return sp
}

// NewStudy materializes the full study: it declares every artifact
// against the lab, lets the scheduler run the dependency DAG with
// whatever concurrency the machine offers, then collects the results in
// the fixed historical order.
func NewStudy(o Options) *Study {
	l := o.Lab
	if l == nil {
		l = lab.New()
	}
	if o.Log != nil {
		log := o.Log
		l.SetLog(func(format string, args ...any) { fmt.Fprintf(log, format+"\n", args...) })
	}
	s := &Study{Opts: o, Lab: l}
	sp := buildSpecs(o)

	specs := []lab.Spec{sp.det, sp.fdDet, sp.singleDet}
	for _, cs := range sp.rr {
		specs = append(specs, cs)
	}
	for _, cs := range sp.fd {
		specs = append(specs, cs)
	}
	for _, cs := range sp.single {
		specs = append(specs, cs)
	}
	o.logf("study: scheduling %d artifacts (3 detectors, %d campaigns)", len(specs), len(sp.rr)+len(sp.fd)+len(sp.single))
	l.Require(specs...)

	s.Det = l.Detector(sp.det)
	s.FDDet = l.Detector(sp.fdDet)
	s.SingleDet = l.Detector(sp.singleDet)
	for _, cs := range sp.rr {
		s.RR = append(s.RR, l.Campaign(cs))
	}
	for _, cs := range sp.fd {
		s.FD = append(s.FD, l.Campaign(cs))
	}
	for _, cs := range sp.single {
		s.Single = append(s.Single, l.Campaign(cs))
	}
	st := l.Stats()
	o.logf("study: ready (computed %d artifacts, %d memory hits, %d disk hits)", st.Computed, st.MemoryHits, st.DiskHits)
	return s
}

// GPUCampaigns returns the round-robin campaigns targeting the GPU.
func (s *Study) GPUCampaigns() []*lab.Campaign {
	var out []*lab.Campaign
	for _, c := range s.RR {
		if c.Target == vm.GPU {
			out = append(out, c)
		}
	}
	return out
}

// Table1 renders the paper's Table I from the twelve round-robin
// campaigns (td = 2 m, as in the paper).
func (s *Study) Table1() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I — FI campaign summary (DiverseAV dual-agent mode, td = 2 m)\n")
	fmt.Fprintf(&b, "%-14s %-4s %-12s %7s %10s %6s %6s %6s\n",
		"FI Target", "", "Scenario", "Active", "HangCrash", "Total", "Acc", "TrajV")
	order := func(c *lab.Campaign) int {
		k := 0
		if c.Target == vm.CPU {
			k += 2
		}
		if c.Model == fi.Transient {
			k += 4
		}
		return k
	}
	rows := append([]*lab.Campaign(nil), s.RR...)
	sort.SliceStable(rows, func(i, j int) bool { return order(rows[i]) < order(rows[j]) })
	for _, c := range rows {
		r := c.Table1Row(2)
		fmt.Fprintf(&b, "%-4s %-10s %-14s %5d %9d %7d %6d %6d\n",
			r.Target, r.Model, r.Scenario, r.Active, r.HangCrash, r.Total, r.Accidents, r.TrajViolates)
	}
	return b.String()
}

// Fig7 renders the precision/recall heat maps over (td, rw) for the
// DiverseAV detector on the GPU campaigns.
func (s *Study) Fig7() string {
	cells := campaign.Evaluate(s.Det, core.CompareAlternating, s.GPUCampaigns(), s.Opts.TDs, s.Opts.RWs)
	// Evaluate emits exactly one cell per (td, rw) grid point; index them
	// once instead of scanning the whole slice at every position.
	type gridKey struct {
		td float64
		rw int
	}
	byKey := make(map[gridKey]campaign.EvalCell, len(cells))
	for _, c := range cells {
		byKey[gridKey{c.TD, c.RW}] = c
	}
	var b strings.Builder
	grid := func(title string, get func(campaign.EvalCell) float64) {
		fmt.Fprintf(&b, "%s (rows: td, cols: rw)\n        ", title)
		for _, rw := range s.Opts.RWs {
			fmt.Fprintf(&b, "rw=%-4d ", rw)
		}
		b.WriteString("\n")
		for _, td := range s.Opts.TDs {
			fmt.Fprintf(&b, "td=%.0fm  ", td)
			for _, rw := range s.Opts.RWs {
				if c, ok := byKey[gridKey{td, rw}]; ok {
					fmt.Fprintf(&b, "%.2f    ", get(c))
				}
			}
			b.WriteString("\n")
		}
	}
	grid("Fig 7a — precision", func(c campaign.EvalCell) float64 { return c.Precision() })
	grid("Fig 7b — recall", func(c campaign.EvalCell) float64 { return c.Recall() })
	best := campaign.EvalCell{}
	for _, c := range cells {
		if c.F1() > best.F1() {
			best = c
		}
	}
	fmt.Fprintf(&b, "best F1: td=%.0fm rw=%d  P=%.2f R=%.2f F1=%.2f (golden alarms: %d)\n",
		best.TD, best.RW, best.Precision(), best.Recall(), best.F1(), best.GoldenAlarms)
	return b.String()
}

// Fig8 renders the lead-detection-time distribution at the headline
// configuration (td = 2 m, default rw).
func (s *Study) Fig8() string {
	times := campaign.LeadTimes(s.Det, core.CompareAlternating, s.GPUCampaigns())
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 8 — lead detection time (alarm → collision), %d accident runs detected\n", len(times))
	if len(times) == 0 {
		b.WriteString("no detected accident runs at this campaign scale\n")
		return b.String()
	}
	sort.Float64s(times)
	for i, t := range times {
		fmt.Fprintf(&b, "x=%.2fs y=%d\n", t, i+1)
	}
	fmt.Fprintf(&b, "min=%.2fs median=%.2fs (human braking reaction ≈ 0.82 s)\n",
		times[0], stats.Percentile(times, 50))
	return b.String()
}

// MissedHazards renders the §VI-A missed-hazard probability.
func (s *Study) MissedHazards() string {
	missed, total := campaign.MissedHazards(s.Det, core.CompareAlternating, s.RR, 2)
	return fmt.Sprintf("§VI-A — missed safety hazards: %d / %d injections = %.4f (paper: 4/3189 ≈ 0.001)\n",
		missed, total, float64(missed)/float64(total))
}

// Comparisons renders the §VI-B/C baseline comparison at td = 2 m.
func (s *Study) Comparisons() string {
	var b strings.Builder
	eval := func(name string, det *core.Detector, mode core.CompareMode, camps []*lab.Campaign) {
		cells := campaign.Evaluate(det, mode, camps, []float64{2}, []int{det.Cfg.RW})
		c := cells[0]
		fmt.Fprintf(&b, "%-22s P=%.2f R=%.2f F1=%.2f (TP=%d FP=%d FN=%d, golden alarms=%d)\n",
			name, c.Precision(), c.Recall(), c.F1(), c.TP, c.FP, c.FN, c.GoldenAlarms)
	}
	b.WriteString("§VI — detector comparison on GPU fault campaigns (td = 2 m)\n")
	eval("DiverseAV", s.Det, core.CompareAlternating, s.GPUCampaigns())
	eval("FD-ADS (duplicate)", s.FDDet, core.CompareDuplicate, s.FD)
	eval("Single-agent", s.SingleDet, core.CompareTemporal, s.Single)
	return b.String()
}
