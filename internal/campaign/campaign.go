// Package campaign is the analysis layer of the paper's Campaign Manager
// (§IV, Fig 3): detector evaluation over the (td, rw) grid (Fig 7),
// lead-detection-time extraction (Fig 8), and the missed-hazard estimate
// (§VI-A). It consumes campaigns that internal/lab executes; golden runs,
// profiling passes, campaigns and detectors are lab specs (GoldenSpec,
// ProfileSpec, CampaignSpec, DetectorSpec).
package campaign

import (
	"diverseav/internal/core"
	"diverseav/internal/lab"
	"diverseav/internal/stats"
)

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
func Evaluate(det *core.Detector, mode core.CompareMode, camps []*lab.Campaign, tds []float64, rws []int) []EvalCell {
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
func LeadTimes(det *core.Detector, mode core.CompareMode, camps []*lab.Campaign) []float64 {
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
func MissedHazards(det *core.Detector, mode core.CompareMode, camps []*lab.Campaign, td float64) (missed, total int) {
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
