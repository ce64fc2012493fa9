package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"diverseav/internal/fi"
	"diverseav/internal/fi/instr"
	"diverseav/internal/scenario"
	"diverseav/internal/vm"
)

func traceJSON(t *testing.T, res *Result) []byte {
	t.Helper()
	b, err := json.Marshal(res.Trace)
	if err != nil {
		t.Fatalf("marshal trace: %v", err)
	}
	return b
}

// TestPermanentScopeMatchesTier0 runs a permanent plan for every
// writeback opcode on both devices. A permanent hook is scoped to its
// one opcode, so everything else runs on tier-1 kernels; the trace and
// activation count must be byte-identical to the same run pinned to
// the tier-0 interpreter.
func TestPermanentScopeMatchesTier0(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	sc := shortScenario()
	for _, d := range []vm.Device{vm.CPU, vm.GPU} {
		for op := vm.Opcode(0); int(op) < vm.NumOpcodes; op++ {
			if op.Dest() == vm.DestNone {
				continue
			}
			plan := fi.Plan{Target: d, Model: fi.Permanent, Opcode: op, Bit: 40 + uint(op)%20}
			cfg := Config{Scenario: sc, Mode: RoundRobin, Seed: 17, Surface: instr.Plan{P: plan}}
			fast := Run(cfg)
			cfg.ForceVMTier0 = true
			slow := Run(cfg)
			if !bytes.Equal(traceJSON(t, fast), traceJSON(t, slow)) || fast.Activations != slow.Activations {
				t.Errorf("%s: scoped tier-1 run differs from tier 0 (activations %d vs %d)", plan, fast.Activations, slow.Activations)
			}
		}
	}
}

// TestScopedProfileMatchesFull: the profiling pass's scoped observer —
// each opcode narrowed out after first sight, InstrCount settled from
// the machine's halt tail — must record exactly the profile of an
// observer that watches every writeback, on every safety-critical
// scenario and agent mode, without falling back to the full pass.
func TestScopedProfileMatchesFull(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	for _, sc := range scenario.SafetyCritical() {
		for _, mode := range []Mode{RoundRobin, Duplicate, Single} {
			sc, mode := sc, mode
			t.Run(fmt.Sprintf("%s/%s", sc.Name, mode), func(t *testing.T) {
				t.Parallel()
				var scoped, full fi.Profile
				r := newRunner(Config{Scenario: sc, Mode: mode, Seed: 5, Profile: &scoped})
				res := r.run(0)
				if r.profilePending {
					t.Fatal("scoped profile did not settle")
				}
				ref := runFullProfile(Config{Scenario: sc, Mode: mode, Seed: 5, Profile: &full})
				if !reflect.DeepEqual(scoped, full) {
					t.Errorf("scoped profile differs from the full observer's (InstrCount %v vs %v)", scoped.InstrCount, full.InstrCount)
				}
				if !bytes.Equal(traceJSON(t, res), traceJSON(t, ref)) {
					t.Error("profiling traces differ")
				}
			})
		}
	}
}
