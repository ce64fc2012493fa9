package sim

import (
	"testing"

	"diverseav/internal/agent"
	"diverseav/internal/fi/memfault"
	"diverseav/internal/scenario"
	"diverseav/internal/trace"
)

func countFrames(tr *trace.Trace) [2]int {
	var n [2]int
	for _, s := range tr.Steps {
		for id := 0; id < 2; id++ {
			if s.Cmd[id].Valid {
				n[id]++
			}
		}
	}
	return n
}

func TestOverlapZeroIsPureRoundRobin(t *testing.T) {
	res := Run(Config{Scenario: scenario.LeadSlowdown(), Mode: RoundRobin, Seed: 31})
	n := countFrames(res.Trace)
	total := len(res.Trace.Steps)
	if n[0]+n[1] != total {
		t.Errorf("frames %v over %d steps: pure round-robin delivers exactly one per step", n, total)
	}
}

func TestOverlapDeliversExtraFrames(t *testing.T) {
	res := Run(Config{Scenario: scenario.LeadSlowdown(), Mode: RoundRobin, Seed: 31, Overlap: 0.25})
	n := countFrames(res.Trace)
	total := len(res.Trace.Steps)
	// Every 4th frame goes to both agents: expect ≈ 1.25 frames/step.
	want := total + total/4
	got := n[0] + n[1]
	if got < want-8 || got > want+8 {
		t.Errorf("delivered %d agent-frames over %d steps, want ≈ %d", got, total, want)
	}
	if res.Trace.Outcome != trace.OutcomeCompleted {
		t.Errorf("overlap run outcome = %s", res.Trace.Outcome)
	}
}

func TestOverlapIncreasesCompute(t *testing.T) {
	plain := Run(Config{Scenario: scenario.LeadSlowdown(), Mode: RoundRobin, Seed: 31})
	over := Run(Config{Scenario: scenario.LeadSlowdown(), Mode: RoundRobin, Seed: 31, Overlap: 0.5})
	plainInstr := plain.Trace.InstrGPU[0] + plain.Trace.InstrGPU[1]
	overInstr := over.Trace.InstrGPU[0] + over.Trace.InstrGPU[1]
	// 0.5 overlap duplicates half the frames: ~1.5× the GPU work.
	lo := plainInstr + plainInstr*3/10
	hi := plainInstr + plainInstr*7/10
	if overInstr < lo || overInstr > hi {
		t.Errorf("overlap GPU instructions %d vs plain %d, want ≈ 1.5×", overInstr, plainInstr)
	}
}

func TestMemFaultInGuardRegionIsMasked(t *testing.T) {
	// A bit flip in unused guard memory must change nothing.
	mf := memfault.Plan{Agent: 0, Step: 100, Addr: agent.MemWords - 4, Bit: 30}
	faulty := Run(Config{Scenario: scenario.LeadSlowdown(), Mode: RoundRobin, Seed: 37, Surface: mf})
	golden := Run(Config{Scenario: scenario.LeadSlowdown(), Mode: RoundRobin, Seed: 37})
	if faulty.Trace.Outcome != golden.Trace.Outcome {
		t.Errorf("guard-region flip changed the outcome: %s vs %s", faulty.Trace.Outcome, golden.Trace.Outcome)
	}
	for i := range golden.Trace.Steps {
		if faulty.Trace.Steps[i].Throttle != golden.Trace.Steps[i].Throttle {
			t.Fatalf("guard-region flip changed actuation at step %d", i)
		}
	}
}

func TestMemFaultInStateIsNotMasked(t *testing.T) {
	// Flipping a high bit of agent 0's PID integrator perturbs its
	// subsequent commands.
	mf := memfault.Plan{Agent: 0, Step: 400, Addr: agent.AddrState, Bit: 62}
	faulty := Run(Config{Scenario: scenario.LeadSlowdown(), Mode: RoundRobin, Seed: 37, Surface: mf})
	golden := Run(Config{Scenario: scenario.LeadSlowdown(), Mode: RoundRobin, Seed: 37})
	n := len(golden.Trace.Steps)
	if len(faulty.Trace.Steps) < n {
		n = len(faulty.Trace.Steps)
	}
	diff := false
	for i := 401; i < n; i++ {
		if faulty.Trace.Steps[i].Throttle != golden.Trace.Steps[i].Throttle ||
			faulty.Trace.Steps[i].Brake != golden.Trace.Steps[i].Brake {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("ECC-off state corruption had no effect on actuation")
	}
}

func TestMemFaultAddressClamped(t *testing.T) {
	// Out-of-range addresses must not panic: the flip lands on the
	// last word instead.
	mf := memfault.Plan{Agent: 0, Step: 10, Addr: 1 << 30, Bit: 1}
	res := Run(Config{Scenario: scenario.LeadSlowdown(), Mode: RoundRobin, Seed: 41, Surface: mf})
	if res == nil {
		t.Fatal("nil result")
	}
	if res.Activations != 1 || res.Trace.Fault != mf.String() {
		t.Errorf("activations %d, fault %q; want 1 and %q", res.Activations, res.Trace.Fault, mf.String())
	}
}
