package fi

import (
	"reflect"
	"testing"

	"diverseav/internal/vm"
)

// stepProgram is a tiny loop-free program so each Run advances the
// machine's counters by a fixed, known amount.
func stepProgram() *vm.Program {
	b := vm.NewBuilder("step")
	b.FMovI(0, 1)
	b.FMovI(1, 2)
	b.FAdd(2, 0, 1)
	b.FMul(3, 2, 2)
	b.Halt()
	return b.MustBuild()
}

// TestStepCountsSumToStreamLength drives a real machine through a
// sequence of "simulation steps", records the end-of-step cumulative
// counts the way the harness does, and checks the per-step deltas sum to
// the machine's final dynamic instruction count (the stream length the
// DynIndex→step map is built over).
func TestStepCountsSumToStreamLength(t *testing.T) {
	p := stepProgram()
	m := vm.NewMachine(4)
	var prof Profile
	const steps = 17
	for s := 0; s < steps; s++ {
		// Variable per-step work: agent 0 runs CPU every step and GPU on
		// even steps, like a data-dependent pipeline would.
		if err := m.Run(vm.CPU, p, 1<<20); err != nil {
			t.Fatal(err)
		}
		if s%2 == 0 {
			if err := m.Run(vm.GPU, p, 1<<20); err != nil {
				t.Fatal(err)
			}
		}
		prof.RecordStep(0, m.InstrCount(vm.CPU), m.InstrCount(vm.GPU))
	}
	for _, d := range []vm.Device{vm.CPU, vm.GPU} {
		deltas := prof.StepCounts(0, d)
		if len(deltas) != steps {
			t.Fatalf("%s: %d step counts, want %d", d, len(deltas), steps)
		}
		var sum uint64
		for _, c := range deltas {
			sum += c
		}
		if sum != m.InstrCount(d) {
			t.Errorf("%s: step counts sum to %d, machine executed %d", d, sum, m.InstrCount(d))
		}
	}
}

func TestActivationStepMapping(t *testing.T) {
	var prof Profile
	// Cumulative counts: step 0 ends at 10, step 1 at 10 (agent idle),
	// step 2 at 25, step 3 at 40.
	for _, c := range []uint64{10, 10, 25, 40} {
		prof.RecordStep(1, c, c*2)
	}
	cases := []struct {
		dyn  uint64
		step int
		ok   bool
	}{
		{1, 0, true},
		{10, 0, true},
		{11, 2, true}, // step 1 executed nothing; instruction 11 lands in step 2
		{25, 2, true},
		{26, 3, true},
		{40, 3, true},
		{41, 4, false}, // beyond the profiled stream: inactive
		{0, 0, false},  // DynIndex 0 is "no target"
	}
	for _, tc := range cases {
		step, ok := prof.ActivationStep(1, vm.CPU, tc.dyn)
		if step != tc.step || ok != tc.ok {
			t.Errorf("ActivationStep(dyn=%d) = (%d, %v), want (%d, %v)", tc.dyn, step, ok, tc.step, tc.ok)
		}
	}
	// Unrecorded agent: never ok.
	if _, ok := prof.ActivationStep(0, vm.CPU, 5); ok {
		t.Error("ActivationStep on unrecorded agent reported ok")
	}
}

// TestInjectorNeverDoubleFiresAcrossFork models the fork boundary: a
// transient injector fires in the prefix, its activation count is
// checkpointed, and a fresh injector restored from that count must not
// fire again even if it observes the same writeback stream tail.
func TestInjectorNeverDoubleFiresAcrossFork(t *testing.T) {
	plan := Plan{Target: vm.GPU, Model: Transient, DynIndex: 7, Bit: 3}
	ev := func(dyn uint64) vm.WriteEvent {
		return vm.WriteEvent{Device: vm.GPU, Op: vm.FADD, DynIndex: dyn, Kind: vm.DestFloat}
	}

	// Prefix run: the injector fires exactly once at its DynIndex.
	pre := NewInjector(plan)
	for dyn := uint64(1); dyn <= 10; dyn++ {
		mask := pre.Hook(ev(dyn))
		if (mask != 0) != (dyn == plan.DynIndex) {
			t.Fatalf("prefix: mask=%#x at dyn=%d", mask, dyn)
		}
	}
	if pre.Activations() != 1 {
		t.Fatalf("prefix activations = %d", pre.Activations())
	}

	// Fork: new injector, activation count restored from the checkpoint.
	post := NewInjector(plan)
	post.Restore(pre.Snapshot())
	if post.Activations() != 1 {
		t.Fatalf("restored activations = %d", post.Activations())
	}
	// Replay writebacks including one that re-presents the target
	// DynIndex (a defensive case: a resumed run continues past it, but a
	// mis-bucketed fork must still not corrupt twice).
	for dyn := uint64(5); dyn <= 20; dyn++ {
		if mask := post.Hook(ev(dyn)); mask != 0 {
			t.Fatalf("forked transient injector fired again at dyn=%d", dyn)
		}
	}
	if post.Activations() != 1 {
		t.Errorf("activations after fork = %d, want still 1", post.Activations())
	}

	// A fork taken BEFORE activation restores zero and fires exactly once.
	early := NewInjector(plan)
	early.Restore(0)
	fired := 0
	for dyn := uint64(1); dyn <= 10; dyn++ {
		if early.Hook(ev(dyn)) != 0 {
			fired++
		}
	}
	if fired != 1 || early.Activations() != 1 {
		t.Errorf("pre-activation fork fired %d times (activations %d), want 1", fired, early.Activations())
	}
}

// TestPermanentInjectorRestoreContinuesAccounting pins that a permanent
// injector keeps corrupting after a restore and its count continues from
// the checkpointed total.
func TestPermanentInjectorRestoreContinuesAccounting(t *testing.T) {
	plan := Plan{Target: vm.CPU, Model: Permanent, Opcode: vm.IADD, Bit: 1}
	in := NewInjector(plan)
	in.Restore(41)
	mask := in.Hook(vm.WriteEvent{Device: vm.CPU, Op: vm.IADD, DynIndex: 99, Kind: vm.DestInt})
	if mask != plan.Mask() {
		t.Fatalf("restored permanent injector did not corrupt: mask=%#x", mask)
	}
	if in.Activations() != 42 {
		t.Errorf("activations = %d, want 42", in.Activations())
	}
}

// tailWorkload is buildWorkload with a writeback between the loop exit
// and HALT, the `writeback; HALT` shape every agent program has.
func tailWorkload() *vm.Program {
	b := vm.NewBuilder("tail-workload")
	b.FMovI(0, 0)
	b.FMovI(1, 1.5)
	b.IMovI(0, 0)
	b.IMovI(1, 20)
	top, done := b.NewLabel(), b.NewLabel()
	b.Bind(top)
	b.ICmpLt(2, 0, 1)
	b.Beqz(2, done)
	b.FMA(0, 1, 1, 0)
	b.St(0, 0, 0)
	b.Ld(2, 0, 0)
	b.IAddI(0, 0, 1)
	b.Jmp(top)
	b.Bind(done)
	b.FSqrt(3, 1)
	b.Halt()
	return b.MustBuild()
}

// TestProfileAttachMatchesObserve: the scoped observer (Attach, then
// Settle) records the full observer's profile while narrowing each seen
// opcode out of its scope, and reports when the machine cannot fix InstrCount — a
// program whose HALT is a branch target, or a trapped run.
func TestProfileAttachMatchesObserve(t *testing.T) {
	run := func(m *vm.Machine, p *vm.Program, budget uint64) {
		for _, d := range []vm.Device{vm.GPU, vm.CPU, vm.GPU} {
			_ = m.Run(d, p, budget)
		}
	}
	p := tailWorkload()
	var full, scoped Profile
	ref := vm.NewMachine(64)
	ref.SetFaultHook(full.Observe())
	run(ref, p, 1<<20)
	m := vm.NewMachine(64)
	scoped.Attach(m)
	run(m, p, 1<<20)
	if !scoped.Settle(m) {
		t.Fatal("Settle failed on a clean `writeback; HALT` pass")
	}
	if !reflect.DeepEqual(scoped, full) {
		t.Fatalf("scoped profile %+v, full %+v", scoped.InstrCount, full.InstrCount)
	}
	for _, d := range []vm.Device{vm.CPU, vm.GPU} {
		if want := vm.WritebackOps &^ vm.MaskOf(scoped.ActiveOpcodes(d)...); m.HookScope(d) != want {
			t.Fatalf("%s scope %x, want the unseen opcodes %x", d, m.HookScope(d), want)
		}
	}

	for _, c := range []struct {
		name   string
		p      *vm.Program
		budget uint64
	}{{"halt-is-target", buildWorkload(), 1 << 20}, {"trapped", p, 50}} {
		var pr Profile
		m := vm.NewMachine(64)
		pr.Attach(m)
		run(m, c.p, c.budget)
		if pr.Settle(m) {
			t.Errorf("%s: Settle claimed an exact InstrCount", c.name)
		}
	}
}
