package sim

import (
	"testing"

	"diverseav/internal/fi"
	"diverseav/internal/fi/instr"
	"diverseav/internal/vm"
)

// TestRunTierEquivalence is the end-to-end form of the tiered-VM
// invariant: a full closed-loop run on the tier-1 fused kernels must
// produce a byte-identical trace to the same run pinned to the tier-0
// scalar interpreter, for every agent mode. The instruction counts
// serialized in the trace make this sensitive to even a one-instruction
// accounting drift.
func TestRunTierEquivalence(t *testing.T) {
	sc := shortScenario()
	for _, mode := range []Mode{Single, RoundRobin, Duplicate} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			base := Config{Scenario: sc, Mode: mode, Seed: 99}
			tier0 := base
			tier0.ForceVMTier0 = true
			h1, h0 := traceHash(t, base), traceHash(t, tier0)
			if h1 != h0 {
				t.Fatalf("tier-1 trace diverged from tier-0: %s vs %s", h1, h0)
			}
		})
	}
}

// TestRunTierEquivalenceUnderFault covers the mixed configuration: a
// transient fault installs a hook on one agent's GPU (forcing it onto
// the hooked loop until the fault is spent) while that agent's CPU and
// the other agent keep running tier-1 kernels. The whole run must still
// match the fully tier-0 execution.
func TestRunTierEquivalenceUnderFault(t *testing.T) {
	sc := shortScenario()
	plan := fi.Plan{Target: vm.GPU, Model: fi.Transient, DynIndex: 500_000, Bit: 40}
	base := Config{Scenario: sc, Mode: RoundRobin, Seed: 3, Surface: instr.Plan{P: plan, Agent: 1}}
	tier0 := base
	tier0.ForceVMTier0 = true
	h1, h0 := traceHash(t, base), traceHash(t, tier0)
	if h1 != h0 {
		t.Fatalf("faulted tier-1 trace diverged from tier-0: %s vs %s", h1, h0)
	}
}
