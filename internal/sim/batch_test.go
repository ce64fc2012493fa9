package sim

import (
	"strings"
	"testing"

	"diverseav/internal/fi"
	"diverseav/internal/fi/instr"
	"diverseav/internal/scenario"
	"diverseav/internal/vm"
)

// profileStream runs the checkpoint-emitting profiling pass the way the
// campaign executor does for instruction transient campaigns: one
// fault-free run recording the instruction profile and the golden
// checkpoint stream.
func profileStream(sc *scenario.Scenario, mode Mode, seed uint64, every int) (*fi.Profile, *GoldenStream) {
	var prof fi.Profile
	res := Run(Config{Scenario: sc, Mode: mode, Seed: seed, Profile: &prof, CheckpointEvery: every})
	return &prof, &GoldenStream{Checkpoints: res.Checkpoints, Trace: res.Trace}
}

// lanePlan is one lane of the equivalence matrix: a transient plan, the
// agent it strikes, and its planner-derived detach step.
type lanePlan struct {
	name   string
	plan   fi.Plan
	agent  int
	detach int
}

// buildLanes derives the matrix lanes from the profile: early-, mid-
// and late-activating GPU faults (two of them sharing one activation
// step, so both restore from one pack snapshot), a CPU fault, and a plan whose
// dynamic index the run never reaches (the golden-clone path).
func buildLanes(t *testing.T, prof *fi.Profile, mode Mode) []lanePlan {
	t.Helper()
	nAgents := mode.Agents()
	gpu, cpu := prof.InstrCount[vm.GPU], prof.InstrCount[vm.CPU]
	mk := func(name string, d vm.Device, dyn uint64, bit uint, ag int) lanePlan {
		lp := lanePlan{
			name:  name,
			plan:  fi.Plan{Target: d, Model: fi.Transient, DynIndex: dyn, Bit: bit},
			agent: ag,
		}
		step, ok := prof.ActivationStep(ag%nAgents, d, dyn)
		if !ok {
			step = -1
		}
		lp.detach = step
		return lp
	}
	lanes := []lanePlan{
		mk("gpu-early", vm.GPU, gpu/20, 52, 0),
		mk("gpu-mid", vm.GPU, gpu/2, 41, 0),
		// Same dynamic index, different bit: guaranteed to share gpu-mid's
		// activation step, so both lanes restore from one pack snapshot.
		mk("gpu-mid-twin", vm.GPU, gpu/2, 13, 0),
		mk("cpu-late", vm.CPU, cpu*9/10, 7, 1),
		mk("gpu-never", vm.GPU, gpu*2, 3, 0),
	}
	if lanes[1].detach != lanes[2].detach {
		t.Fatalf("gpu-mid and gpu-mid-twin map to steps %d and %d; want a shared detach step", lanes[1].detach, lanes[2].detach)
	}
	if lanes[4].detach != -1 {
		t.Fatalf("gpu-never activates at step %d; want never", lanes[4].detach)
	}
	return lanes
}

// TestLaneEquivalenceMatrix is the batched-execution hard invariant,
// over every mode: each lane of RunLanesFrom — single-lane detaches,
// two lanes sharing one detach step, and a never-activating golden
// clone —
// must produce a byte-identical trace (same JSON hash) and the same
// activation count as the same config executed cold, with splicing on
// and (spot-checked) off.
func TestLaneEquivalenceMatrix(t *testing.T) {
	sc := shortScenario()
	const seed = 4242
	const every = 40

	for _, mode := range []Mode{Single, RoundRobin, Duplicate} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			prof, stream := profileStream(sc, mode, seed, every)
			lanes := buildLanes(t, prof, mode)

			cfgs := make([]Config, len(lanes))
			detach := make([]int, len(lanes))
			coldHash := make([]string, len(lanes))
			coldAct := make([]uint64, len(lanes))
			for i, lp := range lanes {
				cfgs[i] = Config{
					Scenario: sc, Mode: mode, Seed: seed,
					Surface: instr.Plan{P: lp.plan, Agent: lp.agent}, Golden: stream,
				}
				detach[i] = lp.detach
				coldCfg := cfgs[i]
				coldCfg.Golden = nil
				cold := Run(coldCfg)
				coldHash[i] = hashTrace(t, cold.Trace)
				coldAct[i] = cold.Activations
			}

			results, err := RunLanesFrom(cfgs, detach)
			if err != nil {
				t.Fatal(err)
			}
			for i, lp := range lanes {
				if got := hashTrace(t, results[i].Trace); got != coldHash[i] {
					t.Errorf("lane %s: trace diverged from cold run", lp.name)
				}
				if results[i].Activations != coldAct[i] {
					t.Errorf("lane %s: activations %d, cold %d", lp.name, results[i].Activations, coldAct[i])
				}
			}
			// The clone lane must not have simulated anything.
			clone := results[4]
			if clone.Exec.ExitReason != ExitSplice || clone.Exec.SimulatedTo != 0 {
				t.Errorf("clone lane simulated [%d,%d) exit %q; want pure golden clone",
					clone.Exec.SimulatedFrom, clone.Exec.SimulatedTo, clone.Exec.ExitReason)
			}

			// DisableSplice pins every lane to full-length execution; the
			// traces must still match the cold runs bit for bit, through
			// every quiescent hook's narrowing to an empty scope.
			if mode == RoundRobin {
				nsCfgs := append([]Config(nil), cfgs...)
				for i := range nsCfgs {
					nsCfgs[i].DisableSplice = true
				}
				nsRes, err := RunLanesFrom(nsCfgs, detach)
				if err != nil {
					t.Fatal(err)
				}
				for i, lp := range lanes {
					if got := hashTrace(t, nsRes[i].Trace); got != coldHash[i] {
						t.Errorf("lane %s (full-length): trace diverged from cold run", lp.name)
					}
					if i != 4 && nsRes[i].Exec.ExitReason == ExitSplice {
						t.Errorf("lane %s (full-length): spliced anyway", lp.name)
					}
				}
			}
		})
	}
}

// TestRunLanesFromValidation: the argument contract is enforced before
// any simulation happens.
func TestRunLanesFromValidation(t *testing.T) {
	sc := shortScenario()
	plan := fi.Plan{Target: vm.GPU, Model: fi.Transient, DynIndex: 1, Bit: 1}
	perm := fi.Plan{Target: vm.GPU, Model: fi.Permanent, Opcode: vm.FADD, Bit: 1}
	ok := Config{Scenario: sc, Mode: RoundRobin, Seed: 1, Surface: instr.Plan{P: plan}}
	cases := []struct {
		name   string
		cfgs   []Config
		detach []int
		want   string
	}{
		{"empty", nil, nil, "0 configs"},
		{"length-mismatch", []Config{ok}, []int{1, 2}, "detach steps"},
		{"no-fault", []Config{{Scenario: sc}}, []int{0}, "not an injection run"},
		{"permanent", []Config{{Scenario: sc, Surface: instr.Plan{P: perm}}}, []int{0}, "not a transient"},
		{"checkpointing-lane", []Config{func() Config { c := ok; c.CheckpointEvery = 10; return c }()}, []int{0}, "emits checkpoints"},
		{"identity", []Config{ok, func() Config { c := ok; c.Seed = 2; return c }()}, []int{0, 0}, "run identity"},
		{"clone-without-golden", []Config{ok}, []int{-1}, "no golden trace"},
		{"past-end", []Config{ok}, []int{int(sc.Duration*Hz) + 5}, "past the scenario end"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RunLanesFrom(tc.cfgs, tc.detach)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
		})
	}
}
