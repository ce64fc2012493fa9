package core

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"diverseav/internal/stats"
	"diverseav/internal/trace"
)

// Bins discretizes the vehicle state s = ⟨v, a, ω, α⟩ into the intervals
// whose per-interval thresholds the detector learns (paper §III-D):
// θ_throttle⟨v,a⟩ and θ_brake⟨v,a⟩ key on speed and acceleration;
// θ_steer⟨ω,α⟩ keys on yaw rate and yaw acceleration.
type Bins struct {
	VStep     float64 `json:"v_step"`     // m/s per speed bin
	AStep     float64 `json:"a_step"`     // m/s² per acceleration bin
	OmegaStep float64 `json:"omega_step"` // rad/s per yaw-rate bin
	AlphaStep float64 `json:"alpha_step"` // rad/s² per yaw-accel bin
}

// DefaultBins is the discretization used throughout the evaluation.
func DefaultBins() Bins {
	return Bins{VStep: 3.0, AStep: 3.0, OmegaStep: 0.2, AlphaStep: 1.0}
}

// Key ranges (clamped); generous enough for any reachable state.
const (
	maxVBin     = 15
	maxABin     = 11
	maxOmegaBin = 15
	maxAlphaBin = 15
)

// LongKey encodes the ⟨v,a⟩ bin; LatKey encodes the ⟨ω,α⟩ bin.
func (b Bins) LongKey(v, a float64) int {
	vi := clampBin(int(v/b.VStep), maxVBin)
	ai := clampBin(int((a+12)/b.AStep), maxABin)
	return vi*100 + ai
}

// LatKey encodes the lateral-state bin for the steering threshold.
func (b Bins) LatKey(omega, alpha float64) int {
	oi := clampBin(int((omega+0.8)/b.OmegaStep), maxOmegaBin)
	ai := clampBin(int((alpha+4)/b.AlphaStep), maxAlphaBin)
	return oi*100 + ai
}

func clampBin(i, max int) int {
	if i < 0 {
		return 0
	}
	if i > max {
		return max
	}
	return i
}

// Config holds the detector's runtime parameters.
type Config struct {
	// RW is the rolling window length in received samples (the paper's
	// rw, swept 3..40 in Fig 7).
	RW int `json:"rw"`
	// Margin scales the learned thresholds: alarm when the smoothed
	// divergence exceeds θ·(1+Margin) + Epsilon.
	Margin float64 `json:"margin"`
	// Epsilon is an absolute guard band on [0,1]-ranged commands.
	Epsilon float64 `json:"epsilon"`
	// Hold is the number of consecutive over-threshold samples required
	// to raise an alarm. Legitimate planning transitions (a cut-in, a
	// light change) reach the two agents one frame apart and produce a
	// short divergence burst; hardware faults produce sustained
	// divergence. Holding for a few samples separates the two.
	Hold int `json:"hold"`
	// Warmup is the number of initial samples during which alarms are
	// suppressed (and from which thresholds are not learned): the two
	// freshly-started agents converge their filter states over the first
	// moments of a drive, and a deployed detector would likewise arm
	// itself after start-up.
	Warmup int `json:"warmup"`
}

// DefaultConfig is the configuration DiverseAV reports headline numbers
// at (the paper's best F1 used rw = 3).
func DefaultConfig() Config { return Config{RW: 3, Margin: 0.10, Epsilon: 0.03, Hold: 4, Warmup: 80} }

// DefaultRWs is the rolling-window sweep of Fig 7.
func DefaultRWs() []int { return []int{3, 5, 10, 20, 30, 40} }

// lutSet is one rolling-window size's learned thresholds: per-bin and
// global maxima of the rw-smoothed fault-free divergence.
type lutSet struct {
	Thr map[int]float64 `json:"thr"`
	Brk map[int]float64 `json:"brk"`
	Str map[int]float64 `json:"str"`
	// Global maxima, the fallback for vehicle states never seen in
	// training.
	GThr float64 `json:"g_thr"`
	GBrk float64 `json:"g_brk"`
	GStr float64 `json:"g_str"`
}

func newLutSet() *lutSet {
	return &lutSet{Thr: map[int]float64{}, Brk: map[int]float64{}, Str: map[int]float64{}}
}

// Detector is the trained rolling-window error-detection engine. The
// divergence signal is smoothed by a rolling mean both in training and at
// runtime (the paper's blip suppression, §III-D): thresholds are the
// maximum smoothed divergence observed fault-free, per vehicle-state bin,
// learned separately per window size.
type Detector struct {
	Compare string          `json:"compare"` // comparison mode it was trained for
	Cfg     Config          `json:"config"`
	Bins    Bins            `json:"bins"`
	Sets    map[int]*lutSet `json:"sets"` // keyed by rw
}

// NewDetector creates an untrained detector.
func NewDetector(cfg Config, mode CompareMode) *Detector {
	return &Detector{
		Compare: mode.String(),
		Cfg:     cfg,
		Bins:    DefaultBins(),
		Sets:    map[int]*lutSet{},
	}
}

// Train learns thresholds from fault-free traces for every window size
// in rws (nil = DefaultRWs plus the configured RW). Each trace's
// divergence series is computed once and shared by every window size.
func (d *Detector) Train(traces []*trace.Trace, mode CompareMode, rws ...int) {
	if len(rws) == 0 {
		rws = DefaultRWs()
		if !slices.Contains(rws, d.Cfg.RW) {
			rws = append(rws, d.Cfg.RW)
		}
	}
	sets := make([]*lutSet, len(rws))
	for i, rw := range rws {
		sets[i] = d.set(rw)
	}
	for _, tr := range traces {
		samples := Divergences(tr, mode)
		for i, rw := range rws {
			d.trainOne(sets[i], samples, rw)
		}
	}
}

// set returns the threshold set for window size rw, creating it empty.
func (d *Detector) set(rw int) *lutSet {
	set := d.Sets[rw]
	if set == nil {
		set = newLutSet()
		d.Sets[rw] = set
	}
	return set
}

func (d *Detector) trainOne(set *lutSet, samples []Sample, rw int) {
	rwThr := stats.NewRolling(rw)
	rwBrk := stats.NewRolling(rw)
	rwStr := stats.NewRolling(rw)
	for i, s := range samples {
		rwThr.Push(s.DThrottle)
		rwBrk.Push(s.DBrake)
		rwStr.Push(s.DSteer)
		if !rwThr.Full() || i < d.Cfg.Warmup {
			continue
		}
		lk := d.Bins.LongKey(s.V, s.A)
		sk := d.Bins.LatKey(s.Omega, s.Alpha)
		if v := rwThr.Mean(); v > set.Thr[lk] {
			set.Thr[lk] = v
			if v > set.GThr {
				set.GThr = v
			}
		}
		if v := rwBrk.Mean(); v > set.Brk[lk] {
			set.Brk[lk] = v
			if v > set.GBrk {
				set.GBrk = v
			}
		}
		if v := rwStr.Mean(); v > set.Str[sk] {
			set.Str[sk] = v
			if v > set.GStr {
				set.GStr = v
			}
		}
	}
}

// Merge folds other's learned thresholds into d, per window size: a
// per-bin maximum plus the global maxima. Thresholds are maxima, so
// detectors trained on disjoint sets of traces merge into exactly the
// detector Train learns over all of them, whatever the merge order.
func (d *Detector) Merge(other *Detector) {
	for rw, o := range other.Sets {
		set := d.set(rw)
		mergeMax(set.Thr, o.Thr)
		mergeMax(set.Brk, o.Brk)
		mergeMax(set.Str, o.Str)
		set.GThr = max(set.GThr, o.GThr)
		set.GBrk = max(set.GBrk, o.GBrk)
		set.GStr = max(set.GStr, o.GStr)
	}
}

func mergeMax(dst, src map[int]float64) {
	for k, v := range src {
		if cur, ok := dst[k]; !ok || v > cur {
			dst[k] = v
		}
	}
}

// threshold looks up a learned bin maximum with global fallback.
func threshold(lut map[int]float64, key int, global float64) float64 {
	if v, ok := lut[key]; ok {
		return v
	}
	return global
}

// Alarm is a raised detection.
type Alarm struct {
	Step    int     // step index of the alarm
	Channel string  // "throttle", "brake", "steer", or "platform"
	Value   float64 // smoothed divergence
	Limit   float64 // threshold it exceeded
}

// Detect runs the detector over a trace, returning the first alarm.
// DUE traces (crash/hang) alarm at their end step by policy: the
// platform already detected those, and DiverseAV raises the fail-back
// alarm on them directly (§V-D).
func (d *Detector) Detect(tr *trace.Trace, mode CompareMode) (Alarm, bool) {
	if tr.DUE() {
		return Alarm{Step: tr.EndStep, Channel: "platform"}, true
	}
	set, ok := d.Sets[d.Cfg.RW]
	if !ok {
		// Untrained window size: fall back to the nearest trained one.
		set = d.nearestSet()
		if set == nil {
			return Alarm{}, false
		}
	}
	rwThr := stats.NewRolling(d.Cfg.RW)
	rwBrk := stats.NewRolling(d.Cfg.RW)
	rwStr := stats.NewRolling(d.Cfg.RW)
	scale := 1 + d.Cfg.Margin
	hold := d.Cfg.Hold
	if hold < 1 {
		hold = 1
	}
	var overThr, overBrk, overStr int
	for i, s := range Divergences(tr, mode) {
		rwThr.Push(s.DThrottle)
		rwBrk.Push(s.DBrake)
		rwStr.Push(s.DSteer)
		if !rwThr.Full() || i < d.Cfg.Warmup {
			continue
		}
		lk := d.Bins.LongKey(s.V, s.A)
		sk := d.Bins.LatKey(s.Omega, s.Alpha)
		if lim := float64(threshold(set.Thr, lk, set.GThr)*scale) + d.Cfg.Epsilon; rwThr.Mean() > lim {
			if overThr++; overThr >= hold {
				return Alarm{Step: s.Step, Channel: "throttle", Value: rwThr.Mean(), Limit: lim}, true
			}
		} else {
			overThr = 0
		}
		if lim := float64(threshold(set.Brk, lk, set.GBrk)*scale) + d.Cfg.Epsilon; rwBrk.Mean() > lim {
			if overBrk++; overBrk >= hold {
				return Alarm{Step: s.Step, Channel: "brake", Value: rwBrk.Mean(), Limit: lim}, true
			}
		} else {
			overBrk = 0
		}
		if lim := float64(threshold(set.Str, sk, set.GStr)*scale) + d.Cfg.Epsilon; rwStr.Mean() > lim {
			if overStr++; overStr >= hold {
				return Alarm{Step: s.Step, Channel: "steer", Value: rwStr.Mean(), Limit: lim}, true
			}
		} else {
			overStr = 0
		}
	}
	return Alarm{}, false
}

func (d *Detector) nearestSet() *lutSet {
	best, bestDiff := (*lutSet)(nil), 1<<30
	for rw, s := range d.Sets {
		diff := rw - d.Cfg.RW
		if diff < 0 {
			diff = -diff
		}
		if diff < bestDiff {
			best, bestDiff = s, diff
		}
	}
	return best
}

// Trained reports whether thresholds exist for the given window size.
func (d *Detector) Trained(rw int) bool {
	_, ok := d.Sets[rw]
	return ok
}

// Global returns the global (fallback) thresholds for the configured
// window, for reports.
func (d *Detector) Global() (thr, brk, str float64) {
	set, ok := d.Sets[d.Cfg.RW]
	if !ok {
		set = d.nearestSet()
	}
	if set == nil {
		return 0, 0, 0
	}
	return set.GThr, set.GBrk, set.GStr
}

// WithRW returns a copy of the detector with a different rolling-window
// size (the Fig 7 sweep).
func (d *Detector) WithRW(rw int) *Detector {
	cp := *d
	cp.Cfg.RW = rw
	return &cp
}

// GlobalOnly returns an ablated copy that ignores the per-vehicle-state
// threshold LUTs and uses only the global maxima — the ablation that
// quantifies what the paper's state-conditioned thresholds θ(s) buy.
func (d *Detector) GlobalOnly() *Detector {
	cp := *d
	cp.Sets = make(map[int]*lutSet, len(d.Sets))
	for rw, s := range d.Sets {
		cp.Sets[rw] = &lutSet{
			Thr: map[int]float64{}, Brk: map[int]float64{}, Str: map[int]float64{},
			GThr: s.GThr, GBrk: s.GBrk, GStr: s.GStr,
		}
	}
	return &cp
}

// WithHold returns a copy with a different sustained-exceedance
// requirement (ablation).
func (d *Detector) WithHold(hold int) *Detector {
	cp := *d
	cp.Cfg.Hold = hold
	return &cp
}

// Save serializes the trained detector as JSON.
func (d *Detector) Save(w io.Writer) error {
	return json.NewEncoder(w).Encode(d)
}

// Load deserializes a trained detector.
func Load(r io.Reader) (*Detector, error) {
	var d Detector
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("core: load detector: %w", err)
	}
	return &d, nil
}
