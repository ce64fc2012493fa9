// Package core implements DiverseAV itself: the rolling-window,
// vehicle-state-conditioned error-detection engine of the paper's §III,
// plus the two comparison baselines of §VI — the loosely-coupled fully
// duplicated detector (FD-ADS) and the single-agent temporal-outlier
// detector. The sensor data distributor and control fusion engine live in
// the sim harness (they are wiring); this package owns the statistics.
package core

import (
	"diverseav/internal/trace"
)

// CompareMode selects which pair of actuation commands forms the
// divergence signal.
type CompareMode int

// Comparison modes.
const (
	// CompareAlternating is DiverseAV: consecutive commands come from the
	// two round-robin agents, so |u_t − u_{t−1}| mixes the agents'
	// diverse states.
	CompareAlternating CompareMode = iota
	// CompareDuplicate is FD-ADS: both agents command every step;
	// compare them directly.
	CompareDuplicate
	// CompareTemporal is the single-agent baseline: compare the agent's
	// command against its own previous command.
	CompareTemporal
)

// String names the mode.
func (m CompareMode) String() string {
	switch m {
	case CompareDuplicate:
		return "duplicate"
	case CompareTemporal:
		return "temporal"
	default:
		return "alternating"
	}
}

// Sample is one step's divergence observation: per-channel absolute
// command differences plus the vehicle state ⟨v, a, ω, α⟩ that keys the
// threshold lookup.
type Sample struct {
	Step                      int
	DThrottle, DBrake, DSteer float64
	V, A, Omega, Alpha        float64
}

// Divergences extracts the divergence series from a trace under the
// given comparison mode. Steps without a valid comparison pair are
// skipped. The series is built in one allocation sized to the trace.
func Divergences(tr *trace.Trace, mode CompareMode) []Sample {
	out := make([]Sample, 0, len(tr.Steps))
	switch mode {
	case CompareDuplicate:
		for i, s := range tr.Steps {
			if !s.Cmd[0].Valid || !s.Cmd[1].Valid {
				continue
			}
			out = append(out, sample(i, s, s.Cmd[0], s.Cmd[1]))
		}
	case CompareAlternating:
		for i := 1; i < len(tr.Steps); i++ {
			cur, prev := tr.Steps[i], tr.Steps[i-1]
			a, b := cur.AgentID, prev.AgentID
			if a < 0 || b < 0 || a == b || !cur.Cmd[a].Valid || !prev.Cmd[b].Valid {
				continue
			}
			out = append(out, sample(i, cur, cur.Cmd[a], prev.Cmd[b]))
		}
	case CompareTemporal:
		for i := 1; i < len(tr.Steps); i++ {
			cur, prev := tr.Steps[i], tr.Steps[i-1]
			if !cur.Cmd[0].Valid || !prev.Cmd[0].Valid {
				continue
			}
			out = append(out, sample(i, cur, cur.Cmd[0], prev.Cmd[0]))
		}
	}
	return out
}

func sample(i int, s trace.Step, a, b trace.Cmd) Sample {
	return Sample{
		Step:      i,
		DThrottle: abs(a.Throttle - b.Throttle),
		DBrake:    abs(a.Brake - b.Brake),
		DSteer:    abs(a.Steer - b.Steer),
		V:         s.V,
		A:         s.A,
		Omega:     s.Omega,
		Alpha:     s.AlphaDot,
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
