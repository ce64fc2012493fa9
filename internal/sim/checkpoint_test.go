package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"diverseav/internal/fi"
	"diverseav/internal/fi/instr"
	"diverseav/internal/fi/memfault"
	"diverseav/internal/trace"
	"diverseav/internal/vm"
)

func hashTrace(t *testing.T, tr *trace.Trace) string {
	t.Helper()
	b, err := json.Marshal(tr)
	if err != nil {
		t.Fatalf("marshal trace: %v", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// instrPlan is an optional instruction fault as the run's surface plan
// (nil stays a fault-free run).
func instrPlan(p *fi.Plan, agent int) fi.SurfacePlan {
	if p == nil {
		return nil
	}
	return instr.Plan{P: *p, Agent: agent}
}

// TestForkEquivalenceMatrix is the checkpoint/fork hard invariant, over
// every Mode × fault-model cell: a run resumed from any checkpoint must
// produce a byte-identical trace (same JSON hash) and the same
// activation count as the same config executed from scratch.
//
// Two fork flavors are covered per cell:
//
//   - self-fork: the run checkpoints itself (fault hooks active in the
//     prefix, activation counts and corrupted machine state carried by
//     the checkpoint) and each checkpoint is resumed under the same
//     config. Valid for every fault model, including permanent.
//   - golden-fork: the campaign's production path — a fault-free pass
//     emits the checkpoints and the faulty config forks from them. Only
//     valid when the fault does not act before the checkpoint, so it is
//     exercised for no-fault (all checkpoints) and transient plans
//     (checkpoints at or before the activation step).
func TestForkEquivalenceMatrix(t *testing.T) {
	sc := shortScenario()
	const seed = 1234
	const every = 40 // 120 steps at 3 s → checkpoints at steps 40 and 80

	for _, mode := range []Mode{Single, RoundRobin, Duplicate} {
		mode := mode
		// Profile the golden run once per mode: transient targets must be
		// real dynamic instructions, and the activation step gates which
		// golden checkpoints are fault-free for the plan.
		var prof fi.Profile
		Run(Config{Scenario: sc, Mode: mode, Seed: seed, Profile: &prof})
		lateDyn := prof.InstrCount[vm.GPU] * 9 / 10 // activates late in the run

		cells := []struct {
			name string
			plan *fi.Plan
		}{
			{"no-fault", nil},
			{"transient", &fi.Plan{Target: vm.GPU, Model: fi.Transient, DynIndex: lateDyn, Bit: 41}},
			{"permanent", &fi.Plan{Target: vm.CPU, Model: fi.Permanent, Opcode: vm.FADD, Bit: 2}},
		}
		for _, cell := range cells {
			cell := cell
			t.Run(mode.String()+"/"+cell.name, func(t *testing.T) {
				cfg := Config{Scenario: sc, Mode: mode, Seed: seed, Surface: instrPlan(cell.plan, 0)}
				cold := Run(cfg)
				want := hashTrace(t, cold.Trace)

				// Self-fork: checkpointing must not perturb the run, and
				// every checkpoint must resume to the identical trace.
				cpCfg := cfg
				cpCfg.CheckpointEvery = every
				self := Run(cpCfg)
				if got := hashTrace(t, self.Trace); got != want {
					t.Fatalf("CheckpointEvery perturbed the run: %s != %s", got, want)
				}
				if len(self.Checkpoints) == 0 {
					t.Fatal("no checkpoints emitted")
				}
				for _, cp := range self.Checkpoints {
					res, err := RunFrom(cp, cfg)
					if err != nil {
						t.Fatalf("self-fork from step %d: %v", cp.Step, err)
					}
					if got := hashTrace(t, res.Trace); got != want {
						t.Errorf("self-fork from step %d: trace hash %s, want %s", cp.Step, got, want)
					}
					if res.Activations != cold.Activations {
						t.Errorf("self-fork from step %d: activations %d, want %d", cp.Step, res.Activations, cold.Activations)
					}
				}

				// Golden-fork: resume the faulty config from fault-free
				// checkpoints. A permanent fault acts from step 0, so only
				// the cold path is valid for it (the campaign keeps it cold).
				if cell.plan != nil && cell.plan.Model == fi.Permanent {
					return
				}
				golden := Run(Config{Scenario: sc, Mode: mode, Seed: seed, CheckpointEvery: every})
				forked := 0
				for _, cp := range golden.Checkpoints {
					if cell.plan != nil {
						step, ok := prof.ActivationStep(0, cell.plan.Target, cell.plan.DynIndex)
						if !ok || step < cp.Step {
							continue // fault acts before this checkpoint's prefix ends
						}
					}
					res, err := RunFrom(cp, cfg)
					if err != nil {
						t.Fatalf("golden-fork from step %d: %v", cp.Step, err)
					}
					if got := hashTrace(t, res.Trace); got != want {
						t.Errorf("golden-fork from step %d: trace hash %s, want %s", cp.Step, got, want)
					}
					if res.Activations != cold.Activations {
						t.Errorf("golden-fork from step %d: activations %d, want %d", cp.Step, res.Activations, cold.Activations)
					}
					forked++
				}
				if forked == 0 {
					t.Error("golden-fork: no checkpoint qualified; matrix cell untested")
				}
			})
		}
	}
}

// TestRunFromRejectsMismatchedConfig pins the validation surface: a fork
// is only meaningful under the checkpoint's exact identity.
func TestRunFromRejectsMismatchedConfig(t *testing.T) {
	sc := shortScenario()
	base := Config{Scenario: sc, Mode: RoundRobin, Seed: 7, CheckpointEvery: 40}
	res := Run(base)
	if len(res.Checkpoints) == 0 {
		t.Fatal("no checkpoints emitted")
	}
	cp := res.Checkpoints[0]

	bad := []struct {
		name string
		mut  func(c *Config)
	}{
		{"seed", func(c *Config) { c.Seed = 8 }},
		{"mode", func(c *Config) { c.Mode = Single }},
		{"overlap", func(c *Config) { c.Overlap = 0.5 }},
		{"noise", func(c *Config) { c.SensorNoiseStd = 2.0 }},
		{"profile", func(c *Config) { c.Profile = &fi.Profile{} }},
		{"memfault-before", func(c *Config) { c.Surface = memfault.Plan{Step: cp.Step - 1} }},
	}
	for _, tc := range bad {
		cfg := Config{Scenario: sc, Mode: RoundRobin, Seed: 7}
		tc.mut(&cfg)
		if _, err := RunFrom(cp, cfg); err == nil {
			t.Errorf("%s: RunFrom accepted a mismatched config", tc.name)
		}
	}

	// A matching config with a post-checkpoint memory fault is accepted.
	ok := Config{Scenario: sc, Mode: RoundRobin, Seed: 7, Surface: memfault.Plan{Step: cp.Step + 5, Addr: 100, Bit: 3}}
	if _, err := RunFrom(cp, ok); err != nil {
		t.Errorf("valid post-checkpoint memory fault rejected: %v", err)
	}
}

// TestCheckpointPoolReuse pins the checkpoint recycling path: after
// ReleaseCheckpoints, a later checkpointed pass refills the recycled
// buffers, and forks from them must still be byte-identical to a cold
// run. Stale state leaking through a reused agent memory image, NPC
// slice, or trace prefix would show up here as a hash mismatch.
func TestCheckpointPoolReuse(t *testing.T) {
	sc := shortScenario()
	cfg := Config{Scenario: sc, Mode: RoundRobin, Seed: 11}
	want := hashTrace(t, Run(cfg).Trace)

	cpCfg := cfg
	cpCfg.CheckpointEvery = 30
	for round := 0; round < 3; round++ {
		res := Run(cpCfg)
		if len(res.Checkpoints) == 0 {
			t.Fatalf("round %d: no checkpoints emitted", round)
		}
		for _, cp := range res.Checkpoints {
			fres, err := RunFrom(cp, cfg)
			if err != nil {
				t.Fatalf("round %d: fork from step %d: %v", round, cp.Step, err)
			}
			if got := hashTrace(t, fres.Trace); got != want {
				t.Fatalf("round %d: fork from recycled checkpoint at step %d diverged: %s != %s",
					round, cp.Step, got, want)
			}
		}
		ReleaseCheckpoints(res.Checkpoints)
	}
}

// TestMemFaultForkEquivalence extends the matrix to the ECC-off memory
// fault surface (§VIII): a fork from a checkpoint at or before the flip
// must reproduce the cold faulty trace and its single activation.
func TestMemFaultForkEquivalence(t *testing.T) {
	sc := shortScenario()
	plan := memfault.Plan{Agent: 0, Step: 90, Addr: 512, Bit: 62}
	cfg := Config{Scenario: sc, Mode: RoundRobin, Seed: 21, Surface: plan}
	cold := Run(cfg)
	want := hashTrace(t, cold.Trace)
	if cold.Activations != 1 {
		t.Fatalf("cold run activations %d, want 1", cold.Activations)
	}

	golden := Run(Config{Scenario: sc, Mode: RoundRobin, Seed: 21, CheckpointEvery: 40})
	forked := 0
	for _, cp := range golden.Checkpoints {
		if cp.Step > plan.Step {
			continue
		}
		res, err := RunFrom(cp, cfg)
		if err != nil {
			t.Fatalf("fork from step %d: %v", cp.Step, err)
		}
		if got := hashTrace(t, res.Trace); got != want {
			t.Errorf("fork from step %d: trace hash %s, want %s", cp.Step, got, want)
		}
		if res.Activations != cold.Activations {
			t.Errorf("fork from step %d: activations %d, want %d", cp.Step, res.Activations, cold.Activations)
		}
		forked++
	}
	if forked == 0 {
		t.Fatal("no checkpoint preceded the memory fault")
	}
}
