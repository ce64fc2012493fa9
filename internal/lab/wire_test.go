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
			Sizes: shortSizes(), Seed: 33, CheckpointEvery: 10,
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
		// Out-of-range enums print like valid ones: Mode 7, Target 9,
		// Model 4 would key as the Mode 0, Target 0, Model 0 campaign.
		`{"kind":"campaign","campaign":{"Scenario":"suburban-35","Mode":7,"Target":9,"Model":4}}`,
		`{"kind":"campaign","campaign":{"Scenario":"suburban-35","Mode":-1}}`,
		`{"kind":"campaign","campaign":{"Scenario":"suburban-35","Target":2}}`,
		`{"kind":"campaign","campaign":{"Scenario":"suburban-35","Model":2}}`,
		`{"kind":"golden","golden":{"Scenario":"LeadSlowdown","Mode":3,"N":1}}`,
		`{"kind":"profile","profile":{"Scenario":"LeadSlowdown","Mode":3}}`,
		`{"kind":"detector","detector":{"Cfg":{"rw":3},"Mode":3,"PerRoute":1}}`,
		`{"kind":"detector","detector":{"Cfg":{"rw":3},"Compare":3,"PerRoute":1}}`,
		// Negative counts panic in make on the worker, an empty rolling
		// window in stats.NewRolling.
		`{"kind":"golden","golden":{"Scenario":"LeadSlowdown","N":-1}}`,
		`{"kind":"campaign","campaign":{"Scenario":"suburban-35","Sizes":{"Transient":-1}}}`,
		`{"kind":"campaign","campaign":{"Scenario":"suburban-35","Sizes":{"PermReps":-1}}}`,
		`{"kind":"campaign","campaign":{"Scenario":"suburban-35","Sizes":{"Golden":-3}}}`,
		`{"kind":"campaign","campaign":{"Scenario":"suburban-35","Golden":{"Scenario":"suburban-35","N":-2}}}`,
		`{"kind":"detector","detector":{"Cfg":{"rw":3},"PerRoute":-1}}`,
		`{"kind":"detector","detector":{"Cfg":{"rw":0},"PerRoute":1}}`,
		// The propagation probe fires at golden checkpoint steps: a cold
		// traced campaign would carry no records under a traced key.
		`{"kind":"campaign","campaign":{"Scenario":"suburban-35","CheckpointEvery":-1,"Propagation":true}}`,
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

// FuzzDecodeSpec drives the grid's trust boundary with arbitrary bytes:
// DecodeSpec must never panic, and any envelope it accepts must
// re-encode and decode to a spec with the same Key(), so a worker
// computes exactly the artifact the coordinator named. `go test` runs
// the seed corpus in testdata/fuzz/FuzzDecodeSpec; run
// `go test -fuzz FuzzDecodeSpec ./internal/lab` to explore beyond it.
func FuzzDecodeSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSpec(data)
		if err != nil {
			return
		}
		enc, err := EncodeSpec(s)
		if err != nil {
			t.Fatalf("accepted %q but cannot re-encode it: %v", data, err)
		}
		back, err := DecodeSpec(enc)
		if err != nil {
			t.Fatalf("accepted %q but rejects its re-encoding %q: %v", data, enc, err)
		}
		if back.Key() != s.Key() {
			t.Fatalf("%q: re-encoding changed the key: %s vs %s", data, back.Key(), s.Key())
		}
	})
}
