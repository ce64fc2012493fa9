// Package campaign implements the paper's Campaign Manager (§IV, Fig 3):
// golden-run control experiments, fault-injection plan generation and
// execution, Table I aggregation, detector training/evaluation over the
// (td, rw) grid (Fig 7), lead-detection-time extraction (Fig 8), and the
// missed-hazard estimate (§VI-A).
//
// Campaign execution itself now lives in internal/lab as spec-keyed jobs
// (lab.CampaignSpec and friends), where shared artifacts — golden sets,
// profiling passes, trained detectors — are memoized and scheduled as a
// dependency DAG. This package keeps the historical one-call API as thin
// wrappers (each wrapper runs against a private ephemeral lab, so its
// semantics are exactly the old ones), plus the analysis layer
// (Evaluate, LeadTimes, MissedHazards) that consumes executed campaigns.
package campaign

import (
	"diverseav/internal/core"
	"diverseav/internal/fi"
	"diverseav/internal/lab"
	"diverseav/internal/scenario"
	"diverseav/internal/sim"
	"diverseav/internal/stats"
	"diverseav/internal/vm"
)

// Re-exported lab types: campaign.Campaign and lab.Campaign are the same
// type, so executed campaigns flow freely between the declarative lab
// API and this package's analysis functions.
type (
	// Sizes configures campaign scale.
	Sizes = lab.Sizes
	// RunRecord is one fault-injection experiment.
	RunRecord = lab.RunRecord
	// Campaign is one (target, model, scenario) fault-injection campaign
	// with its golden control runs.
	Campaign = lab.Campaign
	// Table1Row is one row of the paper's Table I.
	Table1Row = lab.Table1Row
)

// DefaultSizes is fast enough for `go test -bench` on one core.
func DefaultSizes() Sizes { return lab.DefaultSizes() }

// BenchSizes keeps a full regeneration inside a few minutes on one core.
func BenchSizes() Sizes { return lab.BenchSizes() }

// FullSizes mirrors the paper's campaign scale (§IV-D).
func FullSizes() Sizes { return lab.FullSizes() }

// DefaultCheckpointEvery is the golden-pass checkpoint interval (steps)
// used by transient fork execution.
const DefaultCheckpointEvery = lab.DefaultCheckpointEvery

// Options tunes campaign execution strategy without touching its
// experimental definition (same plans, same seeds, same results).
type Options struct {
	// CheckpointEvery is the checkpoint interval of the transient
	// campaign's profiling pass. 0 selects DefaultCheckpointEvery;
	// a negative value disables fork execution entirely, running every
	// injection cold from step 0 (the benchmark's reference
	// configuration — results are identical, only slower).
	CheckpointEvery int
	// DisableSplice turns off reconvergence splicing for transient fork
	// execution (results are identical, only slower); see
	// lab.CampaignSpec.DisableSplice.
	DisableSplice bool
	// EarlyExit, when > 0, truncates injection runs once their trajectory
	// diverges from the golden run by this many meters. This changes the
	// recorded traces (it is part of the campaign's identity); see
	// lab.CampaignSpec.EarlyExit.
	EarlyExit float64
	// LaneWidth tunes batched lockstep execution of transient fork
	// campaigns (results are identical, only slower or faster): 0 selects
	// lab.DefaultLaneWidth, a negative value runs every injection solo;
	// see lab.CampaignSpec.LaneWidth.
	LaneWidth int
	// Propagation turns on the fault-propagation tracer: every injection
	// run's Result then carries a first-divergence attribution record.
	// Traces are unchanged, but the records extend the campaign artifact
	// (they are part of its identity); see lab.CampaignSpec.Propagation.
	Propagation bool
}

// Golden runs n fault-free experiments of the scenario in the given
// mode, with distinct seeds derived from seedBase.
func Golden(sc *scenario.Scenario, mode sim.Mode, n int, seedBase uint64) []*sim.Result {
	l := lab.New()
	l.RegisterScenario(sc)
	return l.Golden(lab.GoldenSpec{Scenario: sc.Name, Mode: mode, N: n, Seed: seedBase})
}

// Profile executes one fault-free profiling run and returns the dynamic
// instruction profile of agent 0 (the NVBitFI/PinFI profiling pass).
func Profile(sc *scenario.Scenario, mode sim.Mode, seed uint64) *fi.Profile {
	l := lab.New()
	l.RegisterScenario(sc)
	return l.Profile(lab.ProfileSpec{Scenario: sc.Name, Mode: mode, Seed: seed})
}

// Run executes one fault-injection campaign: plans from the profile,
// one simulation per plan, plus golden control runs.
func Run(sc *scenario.Scenario, mode sim.Mode, target vm.Device, model fi.Model, sizes Sizes, seedBase uint64) *Campaign {
	return RunWithOptions(sc, mode, target, model, sizes, seedBase, nil, Options{})
}

// RunWithOptions is the full-control one-call entry point for the
// instruction surface: RunSurface with the empty surface name.
func RunWithOptions(sc *scenario.Scenario, mode sim.Mode, target vm.Device, model fi.Model, sizes Sizes, seedBase uint64, golden []*sim.Result, opts Options) *Campaign {
	return RunSurface(sc, "", mode, target, model, sizes, seedBase, golden, opts)
}

// RunSurface executes one fault-injection campaign through a registered
// fi.SurfacePlanner ("sensorfault", "hallucinate"; the empty string and
// "instr" select the instruction surface). It builds the equivalent
// lab.CampaignSpec and executes it in a private lab. A nil golden set
// derives the campaign's conventional private controls (sizes.Golden
// runs at seedBase+1000); a caller-supplied set is published into the
// lab under that same key.
func RunSurface(sc *scenario.Scenario, surface string, mode sim.Mode, target vm.Device, model fi.Model, sizes Sizes, seedBase uint64, golden []*sim.Result, opts Options) *Campaign {
	l := lab.New()
	l.RegisterScenario(sc)
	spec := lab.CampaignSpec{
		Scenario:        sc.Name,
		Mode:            mode,
		Target:          target,
		Model:           model,
		Sizes:           sizes,
		Seed:            seedBase,
		Surface:         surface,
		CheckpointEvery: opts.CheckpointEvery,
		DisableSplice:   opts.DisableSplice,
		EarlyExit:       opts.EarlyExit,
		LaneWidth:       opts.LaneWidth,
		Propagation:     opts.Propagation,
	}
	if golden != nil {
		l.ProvideGolden(lab.GoldenSpec{Scenario: sc.Name, Mode: mode, N: sizes.Golden, Seed: seedBase + 1000}, golden)
	}
	return l.Campaign(spec)
}

// TrainDetector runs fault-free training experiments on the three long
// routes in the given mode and trains a detector from them (§III-D: the
// detector is trained only on long scenarios, never on the test
// scenarios or on faulty runs).
func TrainDetector(cfg core.Config, mode sim.Mode, cmp core.CompareMode, perRoute int, seedBase uint64) *core.Detector {
	return lab.New().Detector(lab.DetectorSpec{Cfg: cfg, Mode: mode, Compare: cmp, PerRoute: perRoute, Seed: seedBase})
}

// EvalCell is one point of the Fig 7 precision/recall grid.
type EvalCell struct {
	TD float64
	RW int
	stats.Confusion
	GoldenAlarms int
}

// Evaluate runs the detector over every fault-injected and golden run of
// the campaigns, for every (td, rw) combination. Platform-detected DUEs
// are excluded from the confusion: they are caught by the crash/hang
// channel, not by the statistical detector under evaluation (the paper
// likewise evaluates the detector on runs that survive to produce
// outputs).
func Evaluate(det *core.Detector, mode core.CompareMode, camps []*Campaign, tds []float64, rws []int) []EvalCell {
	var cells []EvalCell
	for _, td := range tds {
		for _, rw := range rws {
			d := det.WithRW(rw)
			cell := EvalCell{TD: td, RW: rw}
			for _, c := range camps {
				for _, r := range c.Runs {
					if r.Result.Trace.DUE() {
						continue
					}
					if !r.Activated() {
						// Inactive faults are golden-equivalent runs;
						// count them as negatives.
						_, alarmed := d.Detect(r.Result.Trace, mode)
						cell.Add(false, alarmed)
						continue
					}
					_, alarmed := d.Detect(r.Result.Trace, mode)
					cell.Add(c.Hazard(r.Result, td), alarmed)
				}
				for _, g := range c.Golden {
					_, alarmed := d.Detect(g.Trace, mode)
					cell.Add(false, alarmed)
					if alarmed {
						cell.GoldenAlarms++
					}
				}
			}
			cells = append(cells, cell)
		}
	}
	return cells
}

// LeadTimes returns, for every true-positive accident run, the lead
// detection time in seconds (collision time − alarm time), the Fig 8
// distribution.
func LeadTimes(det *core.Detector, mode core.CompareMode, camps []*Campaign) []float64 {
	var out []float64
	for _, c := range camps {
		for _, r := range c.Runs {
			tr := r.Result.Trace
			if tr.DUE() || !tr.Collided() {
				continue
			}
			alarm, ok := det.Detect(tr, mode)
			if !ok || alarm.Step > tr.CollisionStep {
				continue
			}
			out = append(out, float64(tr.CollisionStep-alarm.Step)/tr.Hz)
		}
	}
	return out
}

// MissedHazards counts fault-injected runs that were safety hazards (at
// td) yet raised no alarm, over the total number of injections — the
// paper's §VI-A missed-hazard probability.
func MissedHazards(det *core.Detector, mode core.CompareMode, camps []*Campaign, td float64) (missed, total int) {
	for _, c := range camps {
		for _, r := range c.Runs {
			total++
			tr := r.Result.Trace
			if tr.DUE() {
				continue // platform-detected
			}
			if _, alarmed := det.Detect(tr, mode); !alarmed && c.Hazard(r.Result, td) {
				missed++
			}
		}
	}
	return missed, total
}
