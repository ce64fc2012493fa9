package instr

import (
	"testing"

	"diverseav/internal/fi"
	"diverseav/internal/rng"
	"diverseav/internal/vm"
)

// harness is a minimal fi.Harness over bare machines.
type harness struct {
	ms     []*vm.Machine
	shared bool
}

func newHarness(n int, shared bool) *harness {
	h := &harness{shared: shared}
	for i := 0; i < n; i++ {
		h.ms = append(h.ms, vm.NewMachine(64))
	}
	return h
}

func (h *harness) Agents() int                 { return len(h.ms) }
func (h *harness) SharedProcessor() bool       { return h.shared }
func (h *harness) Machine(i int) *vm.Machine   { return h.ms[i] }
func (h *harness) OnFrames(fi.FrameHook)       {}
func (h *harness) OnOutput(hook fi.OutputHook) {}

// counter runs a 20-iteration loop and ends `writeback; HALT`. Its
// dynamic stream: 2 prologue writebacks, then per iteration ICMPLT,
// BEQZ, FADD, IADDI, JMP, then the exit ICMPLT, BEQZ, FMOVI, HALT.
func counter() *vm.Program {
	b := vm.NewBuilder("counter")
	b.IMovI(0, 0)
	b.IMovI(1, 20)
	top, done := b.NewLabel(), b.NewLabel()
	b.Bind(top)
	b.ICmpLt(2, 0, 1)
	b.Beqz(2, done)
	b.FAdd(0, 0, 0)
	b.IAddI(0, 0, 1)
	b.Jmp(top)
	b.Bind(done)
	b.FMovI(1, 2)
	b.Halt()
	return b.MustBuild()
}

func armed(t *testing.T, p fi.Plan, agent int, h *harness) *surface {
	t.Helper()
	s := Plan{P: p, Agent: agent}.New().(*surface)
	s.Arm(h)
	return s
}

// TestArmScopePerModel pins the scope each model arms and its reach: a
// permanent plan watches its one opcode on its target device of every
// agent on a shared processor (one replica otherwise); a transient plan
// watches every writeback of its target device on one agent.
func TestArmScopePerModel(t *testing.T) {
	perm := fi.Plan{Target: vm.GPU, Model: fi.Permanent, Opcode: vm.FMA, Bit: 3}
	for _, shared := range []bool{true, false} {
		h := newHarness(2, shared)
		s := armed(t, perm, 1, h)
		for i, m := range h.ms {
			hit := shared || i == 1
			want := [2]vm.OpMask{}
			if hit {
				want[vm.GPU] = vm.MaskOf(vm.FMA)
			}
			if got := [2]vm.OpMask{m.HookScope(vm.CPU), m.HookScope(vm.GPU)}; got != want {
				t.Errorf("permanent shared=%v agent %d: scope %x, want %x", shared, i, got, want)
			}
		}
		if wantN := map[bool]int{true: 2, false: 1}[shared]; len(s.injectors) != wantN {
			t.Errorf("permanent shared=%v: %d injectors, want %d", shared, len(s.injectors), wantN)
		}
	}

	tr := fi.Plan{Target: vm.CPU, Model: fi.Transient, DynIndex: 9, Bit: 3}
	h := newHarness(2, true)
	armed(t, tr, 3, h) // agent 3 % 2 = 1
	if got := h.ms[1].HookScope(vm.CPU); got != vm.WritebackOps {
		t.Errorf("transient target scope %x, want every writeback", got)
	}
	if got := h.ms[1].HookScope(vm.GPU); got != 0 {
		t.Errorf("transient off-target scope %x, want empty", got)
	}
	if got := h.ms[0].HookScope(vm.CPU) | h.ms[0].HookScope(vm.GPU); got != 0 {
		t.Errorf("transient reached the other agent: scope %x", got)
	}
}

// A transient injector narrows to nothing the moment it fires.
func TestTransientNarrowsOnFire(t *testing.T) {
	h := newHarness(1, true)
	// DynIndex 5 is the first FADD (IMOVI, IMOVI, ICMPLT, BEQZ, FADD).
	s := armed(t, fi.Plan{Target: vm.GPU, Model: fi.Transient, DynIndex: 5, Bit: 1}, 0, h)
	m := h.ms[0]
	if err := m.Run(vm.GPU, counter(), 6); err == nil {
		t.Fatal("expected a budget trap")
	}
	if s.Activations() != 1 {
		t.Fatalf("activations = %d, want 1", s.Activations())
	}
	if m.HookScope(vm.GPU) != 0 {
		t.Fatalf("scope %x after firing, want empty", m.HookScope(vm.GPU))
	}
	if !s.Quiescent(0) {
		t.Fatal("fired injector not quiescent")
	}
}

// A transient whose DynIndex lands on a branch never fires; it narrows
// at the first writeback past that index.
func TestTransientNarrowsPastDynIndex(t *testing.T) {
	h := newHarness(1, true)
	// DynIndex 4 is the first BEQZ (IMOVI, IMOVI, ICMPLT, BEQZ).
	s := armed(t, fi.Plan{Target: vm.GPU, Model: fi.Transient, DynIndex: 4, Bit: 1}, 0, h)
	m := h.ms[0]
	if err := m.Run(vm.GPU, counter(), 4); err == nil {
		t.Fatal("expected a budget trap")
	}
	if m.HookScope(vm.GPU) != vm.WritebackOps {
		t.Fatal("narrowed before any writeback past the index")
	}
	if err := m.Run(vm.GPU, counter(), 1<<20); err != nil {
		t.Fatal(err)
	}
	if s.Activations() != 0 {
		t.Fatalf("a branch-targeted transient fired %d times", s.Activations())
	}
	if m.HookScope(vm.GPU) != 0 {
		t.Fatalf("scope %x after passing the index, want empty", m.HookScope(vm.GPU))
	}
}

// Snapshot/Restore round-trips the activation counters and re-arms each
// hook's scope to match the restored state.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	plan := fi.Plan{Target: vm.GPU, Model: fi.Transient, DynIndex: 5, Bit: 1}
	h := newHarness(1, true)
	s := armed(t, plan, 0, h)
	st := h.ms[0].Snapshot()
	if err := h.ms[0].Run(vm.GPU, counter(), 1<<20); err != nil {
		t.Fatal(err)
	}
	counters := s.Snapshot()
	if len(counters) != 1 || counters[0] != 1 {
		t.Fatalf("snapshot %v, want [1]", counters)
	}

	// Restored as fired: narrowed from the start, never fires again.
	h2 := newHarness(1, true)
	s2 := armed(t, plan, 0, h2)
	s2.Restore(counters)
	if s2.Activations() != 1 || h2.ms[0].HookScope(vm.GPU) != 0 {
		t.Fatalf("restored fired injector: activations %d, scope %x", s2.Activations(), h2.ms[0].HookScope(vm.GPU))
	}

	// Restored to the pre-fire instant on a narrowed machine: watching
	// again, and it fires exactly as the first run did.
	h.ms[0].Restore(st)
	s.Restore([]uint64{0})
	if h.ms[0].HookScope(vm.GPU) != vm.WritebackOps {
		t.Fatalf("restore to a pre-fire state left scope %x", h.ms[0].HookScope(vm.GPU))
	}
	if err := h.ms[0].Run(vm.GPU, counter(), 1<<20); err != nil {
		t.Fatal(err)
	}
	if s.Activations() != 1 {
		t.Fatalf("re-run after restore: activations %d, want 1", s.Activations())
	}

	// Permanent scopes are fixed: restore keeps the one opcode.
	perm := fi.Plan{Target: vm.CPU, Model: fi.Permanent, Opcode: vm.IADDI, Bit: 2}
	h3 := newHarness(2, true)
	s3 := armed(t, perm, 0, h3)
	s3.Restore([]uint64{5, 7})
	if got := s3.Snapshot(); len(got) != 2 || got[0] != 5 || got[1] != 7 {
		t.Fatalf("permanent round trip %v, want [5 7]", got)
	}
	for i, m := range h3.ms {
		if m.HookScope(vm.CPU) != vm.MaskOf(vm.IADDI) {
			t.Fatalf("agent %d: permanent scope %x after restore", i, m.HookScope(vm.CPU))
		}
	}
}

// TestPlannerStreams pins the registered planner to the campaign's two
// streams: its plans are exactly fi.NewPlanner's over the seed^0xfa017
// stream (permanent sweeps thinned by the stride), and plan i strikes
// the agent of the i-th Intn(2) draw of the seed^0xa6e27 stream.
func TestPlannerStreams(t *testing.T) {
	sp, ok := fi.SurfaceByName(fi.SurfaceInstr)
	if !ok {
		t.Fatal("instr surface planner not registered")
	}
	const seed = 0x5eed
	var prof fi.Profile
	prof.InstrCount[vm.GPU] = 1 << 20
	cases := []struct {
		name   string
		model  fi.Model
		n      int
		stride int
		want   func(*fi.Planner) []fi.Plan
	}{
		{"transient", fi.Transient, 7, 3, func(p *fi.Planner) []fi.Plan { return p.TransientPlans(vm.GPU, &prof, 7) }},
		{"permanent", fi.Permanent, 2, 5, func(p *fi.Planner) []fi.Plan { return fi.Stride(p.PermanentPlans(vm.GPU, 2), 5) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := sp.Plans(seed, &prof, vm.GPU, tc.model, 1200, 2, tc.n, tc.stride)
			want := tc.want(fi.NewPlanner(rng.New(seed ^ 0xfa017)))
			agents := rng.New(seed ^ 0xa6e27)
			if len(got) != len(want) || len(got) == 0 {
				t.Fatalf("%d plans, want %d (nonzero)", len(got), len(want))
			}
			for i, p := range got {
				ip, ok := p.(Plan)
				if !ok {
					t.Fatalf("plan %d is %T, want instr.Plan", i, p)
				}
				if w := (Plan{P: want[i], Agent: agents.Intn(2)}); ip != w {
					t.Errorf("plan %d = %+v, want %+v", i, ip, w)
				}
			}
		})
	}
}
