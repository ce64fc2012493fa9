package sim

import (
	"testing"

	"diverseav/internal/core"
	"diverseav/internal/fi"
	"diverseav/internal/fi/instr"
	"diverseav/internal/scenario"
	"diverseav/internal/vm"
)

func TestTransientFaultStrikesOneAgent(t *testing.T) {
	plan := fi.Plan{Target: vm.GPU, Model: fi.Transient, DynIndex: 500_000, Bit: 40}
	res := Run(Config{Scenario: scenario.LeadSlowdown(), Mode: RoundRobin, Seed: 11, Surface: instr.Plan{P: plan, Agent: 1}})
	if res.Activations != 1 {
		t.Errorf("activations = %d, want exactly 1", res.Activations)
	}
}

func TestPermanentFaultStrikesBothAgentsInRoundRobin(t *testing.T) {
	plan := fi.Plan{Target: vm.GPU, Model: fi.Permanent, Opcode: vm.FSQRT, Bit: 2}
	res := Run(Config{Scenario: scenario.LeadSlowdown(), Mode: RoundRobin, Seed: 11, Surface: instr.Plan{P: plan}})
	// FSQRT runs a couple of times per frame per agent; with both agents
	// corrupted the activation count must exceed the frame count.
	if res.Activations < uint64(len(res.Trace.Steps)) {
		t.Errorf("activations = %d over %d steps; both agents should be hit",
			res.Activations, len(res.Trace.Steps))
	}
}

func TestPermanentFaultStrikesOneReplicaInDuplicate(t *testing.T) {
	plan := fi.Plan{Target: vm.GPU, Model: fi.Permanent, Opcode: vm.FSQRT, Bit: 2}
	rr := Run(Config{Scenario: scenario.LeadSlowdown(), Mode: RoundRobin, Seed: 11, Surface: instr.Plan{P: plan}})
	dup := Run(Config{Scenario: scenario.LeadSlowdown(), Mode: Duplicate, Seed: 11, Surface: instr.Plan{P: plan, Agent: 0}})
	// In duplicate mode each agent sees every frame, but only one agent
	// carries the injector (§VI-B): per-frame activations per run should
	// be comparable to round-robin (2 agents × half frames each), not
	// double.
	if dup.Activations > rr.Activations*3/2 {
		t.Errorf("duplicate activations = %d vs round-robin %d; the FD baseline must inject one replica only",
			dup.Activations, rr.Activations)
	}
}

func TestSevereFaultChangesBehaviorAndIsObservable(t *testing.T) {
	// A high-exponent-bit permanent corruption of every FMA on the GPU
	// wrecks the perception pipeline; the run must differ from golden
	// and the divergence between agents must be visible to the detector
	// signal (nonzero alternating divergence).
	plan := fi.Plan{Target: vm.GPU, Model: fi.Permanent, Opcode: vm.FMA, Bit: 58}
	golden := Run(Config{Scenario: scenario.LeadSlowdown(), Mode: RoundRobin, Seed: 13})
	faulty := Run(Config{Scenario: scenario.LeadSlowdown(), Mode: RoundRobin, Seed: 13, Surface: instr.Plan{P: plan}})
	if faulty.Activations == 0 {
		t.Fatal("fault never activated")
	}
	if faulty.Trace.Outcome == golden.Trace.Outcome && len(faulty.Trace.Steps) == len(golden.Trace.Steps) {
		// Same shape: compare trajectories.
		d := 0.0
		for i := range faulty.Trace.Steps {
			f, g := faulty.Trace.Steps[i], golden.Trace.Steps[i]
			dx, dy := f.X-g.X, f.Y-g.Y
			if v := dx*dx + dy*dy; v > d {
				d = v
			}
		}
		if d < 0.25 {
			t.Error("catastrophic permanent fault left the trajectory unchanged")
		}
	}
}

func TestCPUFaultOnAddressPathCrashes(t *testing.T) {
	// Corrupting the sign bit of every IADDI on the CPU makes the
	// marshal loop's addresses negative: the platform must observe a
	// crash (segfault analogue), the paper's dominant CPU outcome.
	plan := fi.Plan{Target: vm.CPU, Model: fi.Permanent, Opcode: vm.IADDI, Bit: 63}
	res := Run(Config{Scenario: scenario.LeadSlowdown(), Mode: RoundRobin, Seed: 17, Surface: instr.Plan{P: plan}})
	if !res.Trace.DUE() {
		t.Errorf("outcome = %s, want crash/hang", res.Trace.Outcome)
	}
	if res.Trace.EndStep > 4 {
		t.Errorf("crash surfaced only at step %d, want immediately", res.Trace.EndStep)
	}
}

func TestLowBitCPUFaultIsMasked(t *testing.T) {
	// A transient low-mantissa corruption of one copied pixel must be
	// masked: the run completes and matches golden outcomes.
	plan := fi.Plan{Target: vm.CPU, Model: fi.Transient, DynIndex: 200_000, Bit: 3}
	res := Run(Config{Scenario: scenario.LeadSlowdown(), Mode: RoundRobin, Seed: 19, Surface: instr.Plan{P: plan}})
	if res.Trace.DUE() || res.Trace.Collided() {
		t.Errorf("low-bit pixel corruption was not masked: %s", res.Trace.Outcome)
	}
}

func TestGoldenRunsProduceDetectableDivergenceSignal(t *testing.T) {
	res := Run(Config{Scenario: scenario.GhostCutIn(), Mode: RoundRobin, Seed: 23})
	samples := core.Divergences(res.Trace, core.CompareAlternating)
	if len(samples) < len(res.Trace.Steps)/2 {
		t.Fatalf("divergence samples = %d over %d steps", len(samples), len(res.Trace.Steps))
	}
	// Fault-free divergence exists (the agents are data-diverse) but is
	// bounded.
	any := false
	for _, s := range samples {
		if s.DThrottle > 0 || s.DBrake > 0 || s.DSteer > 0 {
			any = true
		}
		if s.DThrottle > 1 || s.DBrake > 1 || s.DSteer > 2 {
			t.Fatalf("unbounded divergence: %+v", s)
		}
	}
	if !any {
		t.Error("zero divergence everywhere: agents are not data-diverse")
	}
}

func TestModeStrings(t *testing.T) {
	if Single.String() != "single" || RoundRobin.String() != "diverseav" || Duplicate.String() != "duplicate" {
		t.Error("mode names wrong")
	}
	if Single.Agents() != 1 || RoundRobin.Agents() != 2 || Duplicate.Agents() != 2 {
		t.Error("agent counts wrong")
	}
}
