package sim

import (
	"testing"

	"diverseav/internal/fi"
	"diverseav/internal/scenario"
	"diverseav/internal/vm"
)

// goldenStream runs the checkpoint-emitting golden pass for one
// scenario/mode/seed identity and wraps it the way the campaign executor
// does.
func goldenStream(sc *scenario.Scenario, mode Mode, seed uint64, every int) *GoldenStream {
	res := Run(Config{Scenario: sc, Mode: mode, Seed: seed, CheckpointEvery: every})
	return &GoldenStream{Checkpoints: res.Checkpoints, Trace: res.Trace}
}

// TestSpliceEquivalenceMatrix is the tentpole hard invariant, over every
// Mode × fault-model cell: a divergence-aware run (Config.Golden set)
// must produce a byte-identical trace — same JSON hash — and the same
// activation count as the same config executed without the golden
// stream, whether it splices or not, and whether DisableSplice pins it
// to full-length execution or not. The no-fault cells additionally
// assert that splicing actually fires (the run's state IS the golden
// state at every checkpoint), so the matrix cannot pass vacuously.
func TestSpliceEquivalenceMatrix(t *testing.T) {
	sc := shortScenario()
	const seed = 1234
	const every = 40 // 120 steps at 3 s → golden checkpoints at steps 40 and 80

	for _, mode := range []Mode{Single, RoundRobin, Duplicate} {
		mode := mode
		var prof fi.Profile
		Run(Config{Scenario: sc, Mode: mode, Seed: seed, Profile: &prof})
		lateDyn := prof.InstrCount[vm.GPU] * 9 / 10

		stream := goldenStream(sc, mode, seed, every)

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
				if cold.Exec.ExitReason != "" {
					t.Errorf("cold run carries exit reason %q, want none", cold.Exec.ExitReason)
				}
				if cold.Exec.SimulatedFrom != 0 || cold.Exec.SimulatedTo != cold.Trace.EndStep+1 {
					t.Errorf("cold run simulated [%d,%d), want [0,%d)",
						cold.Exec.SimulatedFrom, cold.Exec.SimulatedTo, cold.Trace.EndStep+1)
				}

				// Divergence-aware cold-start run: byte-identical, with the
				// splice visible only in ExecInfo.
				gCfg := cfg
				gCfg.Golden = stream
				res := Run(gCfg)
				if got := hashTrace(t, res.Trace); got != want {
					t.Fatalf("divergence-aware run diverged: %s != %s", got, want)
				}
				if res.Activations != cold.Activations {
					t.Errorf("divergence-aware activations %d, want %d", res.Activations, cold.Activations)
				}
				switch {
				case cell.plan == nil:
					// A fault-free run tracking its own golden stream must
					// splice at the first checkpoint past the start.
					if res.Exec.ExitReason != ExitSplice {
						t.Fatalf("no-fault run did not splice (exit %q)", res.Exec.ExitReason)
					}
					if res.Exec.SimulatedTo != every {
						t.Errorf("no-fault splice at step %d, want %d", res.Exec.SimulatedTo, every)
					}
					if res.Exec.SplicedSteps != len(stream.Trace.Steps)-every {
						t.Errorf("SplicedSteps = %d, want %d", res.Exec.SplicedSteps, len(stream.Trace.Steps)-every)
					}
				case cell.plan.Model == fi.Permanent:
					// A permanent fault is never quiescent: the splice gate
					// must refuse even though the stream is present.
					if res.Exec.ExitReason != "" {
						t.Errorf("permanent run exited with %q, want full-length execution", res.Exec.ExitReason)
					}
				}

				// DisableSplice escape hatch: full-length execution, still
				// byte-identical.
				dCfg := gCfg
				dCfg.DisableSplice = true
				dres := Run(dCfg)
				if got := hashTrace(t, dres.Trace); got != want {
					t.Fatalf("DisableSplice run diverged: %s != %s", got, want)
				}
				if dres.Exec.ExitReason != "" {
					t.Errorf("DisableSplice run exited with %q, want none", dres.Exec.ExitReason)
				}

				// Golden-fork with the stream attached: the campaign's
				// production path (fork from a checkpoint AND track the
				// stream for reconvergence). Permanent faults run cold.
				if cell.plan != nil && cell.plan.Model == fi.Permanent {
					return
				}
				for _, cp := range stream.Checkpoints {
					if cell.plan != nil {
						step, ok := prof.ActivationStep(0, cell.plan.Target, cell.plan.DynIndex)
						if !ok || step < cp.Step {
							continue
						}
					}
					fres, err := RunFrom(cp, gCfg)
					if err != nil {
						t.Fatalf("golden-fork from step %d: %v", cp.Step, err)
					}
					if got := hashTrace(t, fres.Trace); got != want {
						t.Errorf("golden-fork from step %d diverged: %s != %s", cp.Step, got, want)
					}
					if fres.Activations != cold.Activations {
						t.Errorf("golden-fork from step %d: activations %d, want %d", cp.Step, fres.Activations, cold.Activations)
					}
					if cell.plan == nil && cp.Step+every <= stream.Trace.EndStep {
						// A fault-free fork reconverges trivially at the next
						// checkpoint cadence.
						if fres.Exec.ExitReason != ExitSplice {
							t.Errorf("no-fault fork from step %d did not splice", cp.Step)
						}
					}
				}
			})
		}
	}
}

// TestSpliceDigestCollision pins the correctness gate behind the cheap
// digest: a golden checkpoint whose 64-bit digest matches the fork's
// state but whose full state does not (a forced FNV collision) must NOT
// be spliced — the full bit-exact comparison rejects it and the run
// keeps simulating, still producing the byte-identical trace, and may
// legally splice at a later, untampered checkpoint.
func TestSpliceDigestCollision(t *testing.T) {
	sc := shortScenario()
	cfg := Config{Scenario: sc, Mode: RoundRobin, Seed: 1234}
	want := hashTrace(t, Run(cfg).Trace)
	const every = 40

	// Control: the untampered stream splices at the first checkpoint.
	ctrl := goldenStream(sc, RoundRobin, 1234, every)
	if len(ctrl.Checkpoints) < 2 {
		t.Fatalf("want >= 2 golden checkpoints, got %d", len(ctrl.Checkpoints))
	}
	gCfg := cfg
	gCfg.Golden = ctrl
	if res := Run(gCfg); res.Exec.ExitReason != ExitSplice || res.Exec.SimulatedTo != every {
		t.Fatalf("control run: exit %q at step %d, want splice at %d",
			res.Exec.ExitReason, res.Exec.SimulatedTo, every)
	}

	// Forced collision at the first checkpoint: corrupt a state field the
	// digest covers but leave the stored digest untouched, so the cheap
	// probe passes and only stateEquals can catch it. The run must skip
	// the tampered checkpoint and splice at the intact second one.
	tampered := goldenStream(sc, RoundRobin, 1234, every)
	tampered.Checkpoints[0].EgoSt += 0.5
	gCfg.Golden = tampered
	res := Run(gCfg)
	if got := hashTrace(t, res.Trace); got != want {
		t.Fatalf("collision-rejected run diverged: %s != %s", got, want)
	}
	if res.Exec.ExitReason != ExitSplice || res.Exec.SimulatedTo != 2*every {
		t.Errorf("exit %q at step %d, want splice deferred to the intact checkpoint at %d",
			res.Exec.ExitReason, res.Exec.SimulatedTo, 2*every)
	}

	// Every checkpoint tampered: no splice anywhere, full-length run,
	// still byte-identical.
	allBad := goldenStream(sc, RoundRobin, 1234, every)
	for _, cp := range allBad.Checkpoints {
		cp.EgoSt += 0.5
	}
	gCfg.Golden = allBad
	res = Run(gCfg)
	if got := hashTrace(t, res.Trace); got != want {
		t.Fatalf("all-tampered run diverged: %s != %s", got, want)
	}
	if res.Exec.ExitReason != "" {
		t.Errorf("all-tampered run exited with %q, want full-length execution", res.Exec.ExitReason)
	}
}

// TestNoFireAfterSplice proves the quiescence gate: a transient fault
// that actually fires can only be spliced strictly after its activation
// step, and the spliced run's activation count equals the cold run's —
// the injector can never fire inside the grafted suffix. The test
// searches low mantissa bits (likely masked, so the state washes out and
// reconverges) for a plan that both activates and splices.
func TestNoFireAfterSplice(t *testing.T) {
	sc := shortScenario()
	const seed = 1234
	const every = 20 // dense cadence: more reconvergence probes per run

	var prof fi.Profile
	Run(Config{Scenario: sc, Mode: RoundRobin, Seed: seed, Profile: &prof})
	stream := goldenStream(sc, RoundRobin, 1234, every)

	total := prof.InstrCount[vm.GPU]
	for _, bit := range []uint{0, 1, 2, 3, 4, 5, 6, 7} {
		for frac := 1; frac <= 6; frac++ {
			dyn := total * uint64(frac) / 8
			plan := &fi.Plan{Target: vm.GPU, Model: fi.Transient, DynIndex: dyn, Bit: bit}
			cfg := Config{Scenario: sc, Mode: RoundRobin, Seed: seed, Surface: instrPlan(plan, 0)}
			cold := Run(cfg)
			if cold.Activations == 0 {
				continue // never fired: quiescence-by-activation untestable here
			}
			gCfg := cfg
			gCfg.Golden = stream
			res := Run(gCfg)
			if got, want := hashTrace(t, res.Trace), hashTrace(t, cold.Trace); got != want {
				t.Fatalf("bit %d dyn %d: divergence-aware run diverged: %s != %s", bit, dyn, got, want)
			}
			if res.Exec.ExitReason != ExitSplice {
				continue // fired but never washed out: no splice, keep searching
			}
			if res.Activations != cold.Activations || res.Activations == 0 {
				t.Fatalf("bit %d dyn %d: spliced activations %d, want %d (> 0)",
					bit, dyn, res.Activations, cold.Activations)
			}
			actStep, ok := prof.ActivationStep(0, vm.GPU, dyn)
			if !ok {
				t.Fatalf("bit %d dyn %d: no activation step for a plan that fired", bit, dyn)
			}
			if res.Exec.SimulatedTo <= actStep {
				t.Fatalf("bit %d dyn %d: spliced at step %d, before/at activation step %d — the graft could swallow the fault",
					bit, dyn, res.Exec.SimulatedTo, actStep)
			}
			return // found an activating, reconverging plan; invariants held
		}
	}
	t.Fatal("search exhausted: no transient plan both activated and spliced; the quiescence path is untested")
}

// TestGoldenStreamIdentityGuard: a golden stream recorded under a
// different identity (seed) must never splice into a run, even when
// state happens to look plausible — the identity check precedes any
// digest work.
func TestGoldenStreamIdentityGuard(t *testing.T) {
	sc := shortScenario()
	other := goldenStream(sc, RoundRobin, 999, 40)
	cfg := Config{Scenario: sc, Mode: RoundRobin, Seed: 1234, Golden: other}
	want := hashTrace(t, Run(Config{Scenario: sc, Mode: RoundRobin, Seed: 1234}).Trace)
	res := Run(cfg)
	if res.Exec.ExitReason != "" {
		t.Errorf("foreign golden stream spliced (exit %q)", res.Exec.ExitReason)
	}
	if got := hashTrace(t, res.Trace); got != want {
		t.Errorf("run with foreign stream diverged: %s != %s", got, want)
	}
}
