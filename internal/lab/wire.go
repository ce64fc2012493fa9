package lab

import (
	"encoding/json"
	"errors"
	"fmt"

	"diverseav/internal/core"
	"diverseav/internal/fi"
	"diverseav/internal/sim"
	"diverseav/internal/vm"
)

// Spec wire codec and DAG export for out-of-process execution
// (internal/grid). Artifact BYTES travel through the Store; the specs
// that NAME them travel as JSON envelopes, so a coordinator can hand a
// worker exactly the job definition and nothing else. JSON rather than
// gob because envelopes are small, human-readable in ledgers and on the
// wire, and every spec field is a plain value (strings, numbers, nested
// GoldenSpec).
//
// Strategy fields excluded from Key() (CheckpointEvery, DisableSplice,
// LaneWidth) DO travel in the envelope: they change wall-clock, not
// bytes, and the dispatching side's choice should apply on the worker.

// specEnvelope is the JSON wire form of a Spec: a kind tag plus exactly
// one populated payload pointer.
type specEnvelope struct {
	Kind     string        `json:"kind"`
	Golden   *GoldenSpec   `json:"golden,omitempty"`
	Profile  *ProfileSpec  `json:"profile,omitempty"`
	Campaign *CampaignSpec `json:"campaign,omitempty"`
	Detector *DetectorSpec `json:"detector,omitempty"`
}

// EncodeSpec renders s as its JSON wire envelope.
func EncodeSpec(s Spec) ([]byte, error) {
	env := specEnvelope{Kind: s.kind()}
	switch s := s.(type) {
	case GoldenSpec:
		env.Golden = &s
	case ProfileSpec:
		env.Profile = &s
	case CampaignSpec:
		env.Campaign = &s
	case DetectorSpec:
		env.Detector = &s
	default:
		return nil, fmt.Errorf("lab: no spec wire format for %T", s)
	}
	return json.Marshal(env)
}

// DecodeSpec parses a JSON wire envelope back into the Spec it names.
// The decoded spec round-trips exactly: same normalized value, same Key.
// Specs a worker could not run, or that would share a key with a
// different computation, are rejected here, at the trust boundary,
// rather than when a worker runs them: a campaign naming no registered
// fault surface, an enum value outside its range (every unknown value
// prints like a known one, so its key would collide with that spec's),
// and a negative count or empty rolling window (they panic in make and
// stats.NewRolling).
func DecodeSpec(data []byte) (Spec, error) {
	var env specEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("lab: spec envelope: %w", err)
	}
	var s Spec
	switch env.Kind {
	case "golden":
		if env.Golden != nil {
			s = *env.Golden
		}
	case "profile":
		if env.Profile != nil {
			s = *env.Profile
		}
	case "campaign":
		if env.Campaign != nil {
			s = *env.Campaign
		}
	case "detector":
		if env.Detector != nil {
			s = *env.Detector
		}
	default:
		return nil, fmt.Errorf("lab: unknown spec envelope kind %q", env.Kind)
	}
	if s == nil {
		return nil, fmt.Errorf("lab: spec envelope kind %q without payload", env.Kind)
	}
	if err := checkSpec(s); err != nil {
		return nil, err
	}
	return s, nil
}

// checkSpec reports every field of s that DecodeSpec must reject.
func checkSpec(s Spec) error {
	var errs []error
	check := func(ok bool, format string, args ...any) {
		if !ok {
			errs = append(errs, fmt.Errorf("lab: %s spec: "+format, append([]any{s.kind()}, args...)...))
		}
	}
	mode := func(m sim.Mode) { check(m >= sim.Single && m <= sim.Duplicate, "unknown agent mode %d", m) }
	switch s := s.(type) {
	case GoldenSpec:
		mode(s.Mode)
		check(s.N >= 0, "negative N %d", s.N)
	case ProfileSpec:
		mode(s.Mode)
	case CampaignSpec:
		mode(s.Mode)
		check(s.Target <= vm.GPU, "unknown target %d", s.Target)
		check(s.Model <= fi.Permanent, "unknown fault model %d", s.Model)
		_, ok := fi.SurfaceByName(s.surfaceName())
		check(ok, "surface %q is not registered", s.Surface)
		z := s.Sizes
		check(min(z.Transient, z.PermReps, z.PermStride, z.Golden, z.Training) >= 0, "negative size in %+v", z)
		errs = append(errs, checkSpec(s.Golden))
	case DetectorSpec:
		mode(s.Mode)
		check(s.Compare >= core.CompareAlternating && s.Compare <= core.CompareTemporal, "unknown compare mode %d", s.Compare)
		check(s.PerRoute >= 0, "negative PerRoute %d", s.PerRoute)
		check(s.Cfg.RW >= 1, "rolling window %d < 1", s.Cfg.RW) // stats.NewRolling panics
	}
	return errors.Join(errs...)
}

// PlanNode is one job of an exported DAG: a normalized spec, its
// identity, and the keys of the artifacts it consumes. Deps always
// refer to other nodes of the same Plan call.
type PlanNode struct {
	Spec Spec
	Key  string
	Kind string
	Deps []string
}

// Plan expands specs into their full dependency closure as an ordered
// job list: dependencies before dependents, duplicates collapsed by
// key, order deterministic (depth-first over the request order, exactly
// the seeding order Require uses). Unlike Require it never consults the
// lab's memo — callers scheduling work across processes want the whole
// DAG, and store hits are discovered per-job at execution time.
func Plan(specs ...Spec) []PlanNode {
	seen := make(map[string]bool)
	var out []PlanNode
	var add func(s Spec)
	add = func(s Spec) {
		s = s.normalize()
		key := s.Key()
		if seen[key] {
			return
		}
		seen[key] = true
		deps := s.deps()
		depKeys := make([]string, len(deps))
		for i, d := range deps {
			add(d)
			depKeys[i] = d.Key()
		}
		out = append(out, PlanNode{Spec: s, Key: key, Kind: s.kind(), Deps: depKeys})
	}
	for _, s := range specs {
		add(s)
	}
	return out
}
