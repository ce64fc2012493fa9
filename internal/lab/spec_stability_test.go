package lab

import (
	"strings"
	"testing"

	"diverseav/internal/fi"
	"diverseav/internal/sim"
	"diverseav/internal/vm"
)

// TestCampaignKeyStability pins campaign artifact keys captured before
// the fault-surface refactor: a zero-valued Surface field must hash
// byte-identically to the pre-refactor CampaignSpec, so every cached
// artifact (and the golden report behind it) survives the refactor. If
// this test fails, existing disk caches silently recompute — treat a
// key change as a wire-format break.
func TestCampaignKeyStability(t *testing.T) {
	cases := []struct {
		name string
		spec CampaignSpec
		want string
	}{
		{
			"rr-cpu-transient-derived-seed",
			CampaignSpec{Scenario: "suburban-35", Mode: sim.RoundRobin, Target: vm.CPU, Model: fi.Transient, Sizes: DefaultSizes()},
			"campaign-suburban-35-diverseav-CPU-transient-e716841684296149",
		},
		{
			"rr-gpu-permanent",
			CampaignSpec{Scenario: "suburban-35", Mode: sim.RoundRobin, Target: vm.GPU, Model: fi.Permanent, Sizes: DefaultSizes(), Seed: 123},
			"campaign-suburban-35-diverseav-GPU-permanent-84b74ed74275ce15",
		},
		{
			"single-gpu-transient",
			CampaignSpec{Scenario: "highway-65", Mode: sim.Single, Target: vm.GPU, Model: fi.Transient, Sizes: BenchSizes(), Seed: 777},
			"campaign-highway-65-single-GPU-transient-7aca093e18e20f6a",
		},
		{
			"duplicate-cpu-permanent-explicit-golden",
			CampaignSpec{Scenario: "urban-25", Mode: sim.Duplicate, Target: vm.CPU, Model: fi.Permanent, Sizes: FullSizes(), Seed: 42,
				Golden: GoldenSpec{Scenario: "urban-25", Mode: sim.Duplicate, N: 4, Seed: 9}},
			"campaign-urban-25-duplicate-CPU-permanent-ab81c979f7579d39",
		},
	}
	for _, c := range cases {
		if got := c.spec.Key(); got != c.want {
			t.Errorf("%s: Key() = %q, want pre-refactor %q", c.name, got, c.want)
		}
	}
}

// TestCampaignKeyPropagation pins the tracing half of the key contract:
// an unset Propagation field hashes byte-identically to the
// pre-flight-recorder CampaignSpec (cached artifacts survive), while a
// traced spec keys separately — its artifact carries the records.
func TestCampaignKeyPropagation(t *testing.T) {
	base := CampaignSpec{Scenario: "suburban-35", Mode: sim.RoundRobin, Target: vm.CPU, Model: fi.Transient, Sizes: DefaultSizes()}
	if got, want := base.Key(), "campaign-suburban-35-diverseav-CPU-transient-e716841684296149"; got != want {
		t.Errorf("untraced Key() = %q, want pre-flight-recorder %q", got, want)
	}
	traced := base
	traced.Propagation = true
	if traced.Key() == base.Key() {
		t.Error("Propagation did not change the campaign key: traced records would poison the untraced cache entry")
	}
	if traced.Key() != traced.Key() {
		t.Error("traced Key() not stable")
	}
}

// TestCampaignKeySurface pins the surface half of the key contract:
// "instr" normalizes to the legacy empty surface (same artifact), any
// registered surface gets its own keyspace with a readable prefix, and
// surface keys stay filename-safe.
func TestCampaignKeySurface(t *testing.T) {
	base := CampaignSpec{Scenario: "suburban-35", Mode: sim.RoundRobin, Target: vm.GPU, Model: fi.Transient, Sizes: DefaultSizes(), Seed: 33}
	instr := base
	instr.Surface = fi.SurfaceInstr
	if instr.Key() != base.Key() {
		t.Errorf("Surface %q keyed %q, want the legacy key %q", fi.SurfaceInstr, instr.Key(), base.Key())
	}
	seen := map[string]bool{base.Key(): true}
	for _, name := range []string{fi.SurfaceSensor, fi.SurfaceHallucinate} {
		s := base
		s.Surface = name
		key := s.Key()
		if seen[key] {
			t.Errorf("surface %q key %q collides with another surface", name, key)
		}
		seen[key] = true
		if want := "campaign-" + name + "-"; !strings.HasPrefix(key, want) {
			t.Errorf("surface key %q lacks prefix %q", key, want)
		}
		if strings.ContainsAny(key, "/\\ \t") {
			t.Errorf("surface key %q is not filename-safe", key)
		}
	}
}
