package lab

import (
	"reflect"
	"testing"

	"diverseav/internal/core"
	"diverseav/internal/fi"
	"diverseav/internal/sim"
	"diverseav/internal/vm"
)

// Spec envelopes must round-trip exactly: same value back (including
// strategy fields excluded from Key), therefore the same key.
func TestSpecWireRoundTrip(t *testing.T) {
	specs := []Spec{
		GoldenSpec{Scenario: "LeadSlowdown", Mode: sim.RoundRobin, N: 3, Seed: 11},
		ProfileSpec{Scenario: "GhostCutIn", Mode: sim.Duplicate, Seed: 7},
		CampaignSpec{
			Scenario: "LeadSlowdown", Mode: sim.RoundRobin, Target: vm.GPU, Model: fi.Transient,
			Sizes: shortSizes(), Seed: 33, LaneWidth: 4, DisableSplice: true, EarlyExit: 2.5,
		},
		DetectorSpec{Cfg: core.DefaultConfig(), Mode: sim.RoundRobin, Compare: core.CompareAlternating, PerRoute: 1, Seed: 42},
	}
	for _, s := range specs {
		data, err := EncodeSpec(s)
		if err != nil {
			t.Fatalf("%T: encode: %v", s, err)
		}
		back, err := DecodeSpec(data)
		if err != nil {
			t.Fatalf("%T: decode: %v", s, err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Errorf("%T: round trip changed the spec:\n got %+v\nwant %+v", s, back, s)
		}
		if back.Key() != s.Key() {
			t.Errorf("%T: round trip changed the key: %s vs %s", s, back.Key(), s.Key())
		}
	}
}

func TestDecodeSpecRejects(t *testing.T) {
	for _, bad := range []string{
		"not json",
		`{"kind":"teleporter"}`,
		`{"kind":"campaign"}`, // kind without payload
		`{"kind":"campaign","campaign":{"Scenario":"LeadSlowdown","Surface":"nosuch"}}`, // unregistered surface
	} {
		if _, err := DecodeSpec([]byte(bad)); err == nil {
			t.Errorf("DecodeSpec(%q) accepted garbage", bad)
		}
	}
}

// Plan must expand the dependency closure deterministically with
// dependencies strictly before their dependents, collapsing duplicates.
func TestPlanClosure(t *testing.T) {
	// Cold transient campaigns depend on both a golden set and a shared
	// profiling pass, the deepest DAG a single spec produces.
	camp := CampaignSpec{
		Scenario: "LeadSlowdown", Mode: sim.RoundRobin, Target: vm.GPU, Model: fi.Transient,
		Sizes: shortSizes(), Seed: 33, CheckpointEvery: -1,
	}
	plan := Plan(camp)
	if len(plan) != 3 {
		t.Fatalf("plan has %d nodes, want 3 (golden, profile, campaign): %+v", len(plan), plan)
	}
	pos := make(map[string]int, len(plan))
	for i, n := range plan {
		pos[n.Key] = i
		if n.Key != n.Spec.Key() {
			t.Errorf("node %d key %s does not match its spec", i, n.Key)
		}
	}
	for _, n := range plan {
		for _, d := range n.Deps {
			di, ok := pos[d]
			if !ok {
				t.Fatalf("node %s depends on %s, which is not in the plan", n.Key, d)
			}
			if di >= pos[n.Key] {
				t.Errorf("dependency %s ordered after dependent %s", d, n.Key)
			}
		}
	}
	if plan[len(plan)-1].Kind != "campaign" {
		t.Errorf("campaign is not last: %+v", plan)
	}

	// Requesting the shared golden explicitly must not duplicate it.
	norm := camp.normalize().(CampaignSpec)
	again := Plan(norm.Golden, camp)
	if len(again) != 3 {
		t.Errorf("explicit shared dep duplicated: %d nodes, want 3", len(again))
	}
	if !reflect.DeepEqual(Plan(camp), plan) {
		t.Error("Plan is not deterministic across calls")
	}
}
