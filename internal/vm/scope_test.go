package vm

import (
	"fmt"
	"math/rand"
	"testing"
)

// hookSpec describes one randomized fault hook: its starting scope, a
// transient-style fire index, and the two narrowing behaviours real
// hooks use — a profiler dropping each opcode after seeing it, and an
// injector dropping its whole device scope once past an index.
type hookSpec struct {
	scope       [2]OpMask
	fireAt      uint64
	mask        uint64
	narrowSeen  bool
	narrowAfter uint64 // 0 = never
}

// install arms m with the spec. A scoped machine gets the scope and
// narrows through the VM; a reference machine gets the full scope and a
// hook that keeps the same scope in Go, dropping every event outside it
// before the hook body sees it. Both log exactly the events the hook
// body handles.
func (h hookSpec) install(m *Machine, scoped bool, log *[]WriteEvent) {
	scope := h.scope
	body := func(ev WriteEvent, narrow func(Device, OpMask)) uint64 {
		*log = append(*log, ev)
		if h.narrowSeen {
			narrow(ev.Device, MaskOf(ev.Op))
		}
		if h.narrowAfter > 0 && ev.DynIndex >= h.narrowAfter {
			narrow(ev.Device, WritebackOps)
		}
		if ev.DynIndex == h.fireAt {
			return h.mask
		}
		return 0
	}
	if scoped {
		m.SetScopedHook(func(ev WriteEvent) uint64 { return body(ev, m.NarrowHook) }, scope)
		return
	}
	m.SetFaultHook(func(ev WriteEvent) uint64 {
		if !scope[ev.Device].Has(ev.Op) {
			return 0
		}
		return body(ev, func(d Device, ops OpMask) { scope[d] &^= ops })
	})
}

// randomScope draws a per-device scope: empty, full, one opcode of p
// (so single-opcode scopes land inside kernels), or a random subset,
// independently per device.
func randomScope(rng *rand.Rand, p *Program) [2]OpMask {
	var s [2]OpMask
	for d := range s {
		switch rng.Intn(4) {
		case 0:
		case 1:
			s[d] = WritebackOps
		case 2:
			s[d] = MaskOf(p.Code[rng.Intn(len(p.Code))].Op)
		default:
			s[d] = OpMask(rng.Uint64())
		}
	}
	return s
}

func randomHook(rng *rand.Rand, p *Program) hookSpec {
	h := hookSpec{scope: randomScope(rng, p), fireAt: uint64(1 + rng.Intn(300)), mask: 1 << uint(rng.Intn(64))}
	h.narrowSeen = rng.Intn(3) == 0
	if rng.Intn(3) == 0 {
		h.narrowAfter = uint64(1 + rng.Intn(300))
	}
	return h
}

func eventsEqual(t *testing.T, label string, a, b []WriteEvent) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: hook saw %d events scoped, %d reference", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: hook event %d: %+v vs %+v", label, i, a[i], b[i])
		}
	}
}

// tiersPartition checks that the four tier counters add up to every
// instruction the machine retired since it was built.
func tiersPartition(t *testing.T, label string, m *Machine) {
	t.Helper()
	fused, scalar, hooked, batched := m.TierCounts()
	if got, want := fused+scalar+hooked+batched, m.InstrCount(CPU)+m.InstrCount(GPU); got != want {
		t.Fatalf("%s: tiers %d+%d+%d+%d = %d, retired %d", label, fused, scalar, hooked, batched, got, want)
	}
}

// scopedPrograms mixes raw random code with the fusion templates, so
// scopes land both on arbitrary code and on kernel entries whose
// dispatch depends on the scope.
func scopedPrograms(rng *rand.Rand) *Program {
	switch rng.Intn(4) {
	case 0:
		return buildScoreLike(int64(rng.Intn(60)), int64(rng.Intn(60)+60), int64(rng.Intn(12)))
	case 1:
		return buildCopyLike(int64(rng.Intn(40)), int64(rng.Intn(40)+10), int64(rng.Intn(10)), int64(rng.Intn(40)+10), int64(1+rng.Intn(3)))
	case 2:
		return buildChecksumLike(int64(rng.Intn(60)), int64(rng.Intn(20)))
	default:
		return randomProgram(rng, "scopefuzz")
	}
}

// TestFuzzScopedVsFiltered pins the hook-scope contract differentially.
// For random programs × random scopes × budgets, a machine whose hook
// is scoped (and narrows through NarrowHook) must end bit-identical —
// registers, memory, counts, traps — to a machine with a full-scope
// hook that filters the same scope in Go, and the hook must be handed
// the identical event stream. Two Runs per machine carry narrowed
// scopes across calls, and the scoped machine's tier counters must
// still partition every retired instruction.
func TestFuzzScopedVsFiltered(t *testing.T) {
	rng := rand.New(rand.NewSource(20261018))
	budgets := []uint64{0, 3, 40, 400, 1 << 20}
	for iter := 0; iter < 300; iter++ {
		p := scopedPrograms(rng)
		h := randomHook(rng, p)
		seed := int64(iter)*13 + 5
		for _, budget := range budgets {
			label := fmt.Sprintf("iter=%d %s budget=%d scope=%x/%x", iter, p.Name, budget, h.scope[CPU], h.scope[GPU])
			sm, rm := protoMachine(200, seed), protoMachine(200, seed)
			var sLog, rLog []WriteEvent
			h.install(sm, true, &sLog)
			h.install(rm, false, &rLog)
			for call, d := range []Device{Device(iter % 2), Device(1 - iter%2)} {
				sErr := sm.Run(d, p, budget)
				rErr := rm.Run(d, p, budget)
				machinesEqual(t, fmt.Sprintf("%s call=%d", label, call), sm, rm, sErr, rErr)
			}
			eventsEqual(t, label, sLog, rLog)
			tiersPartition(t, label, sm)
		}
	}
}

// TestFuzzScopedLanes extends the scope contract to lockstep lanes:
// each lane of RunLanes carries its own scoped hook and must end
// identical, with the identical event stream, to the same machine run
// solo under a full-scope hook that filters in Go.
func TestFuzzScopedLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 150; iter++ {
		p := scopedPrograms(rng)
		width := 2 + rng.Intn(MaxLanes-1)
		d := Device(iter % 2)
		budget := []uint64{5, 90, 1 << 20}[iter%3]
		lanes := make([]*Machine, width)
		solos := make([]*Machine, width)
		lLogs := make([][]WriteEvent, width)
		sLogs := make([][]WriteEvent, width)
		for k := range lanes {
			h := randomHook(rng, p)
			seed := int64(iter*41 + k)
			lanes[k], solos[k] = protoMachine(200, seed), protoMachine(200, seed)
			h.install(lanes[k], true, &lLogs[k])
			h.install(solos[k], false, &sLogs[k])
		}
		errs := RunLanes(d, p, budget, lanes)
		for k := range lanes {
			label := fmt.Sprintf("iter=%d %s lane=%d/%d", iter, p.Name, k, width)
			machinesEqual(t, label, lanes[k], solos[k], errs[k], solos[k].Run(d, p, budget))
			eventsEqual(t, label, lLogs[k], sLogs[k])
			tiersPartition(t, label, lanes[k])
		}
	}
}

// A kernel runs inside the hooked loop when its writes miss the scope,
// and its instructions count as fused, not hooked.
func TestScopedHookRunsKernels(t *testing.T) {
	p := buildScoreLike(10, 100, 9)
	m := protoMachine(256, 3)
	var events int
	// A scope on an opcode the score kernel never writes keeps the
	// hooked loop on the GPU while the kernel runs.
	m.SetScopedHook(func(WriteEvent) uint64 { events++; return 0 }, [2]OpMask{GPU: MaskOf(FDIV)})
	if err := m.Run(GPU, p, 1<<30); err != nil {
		t.Fatal(err)
	}
	fused, scalar, hooked, _ := m.TierCounts()
	if fused == 0 || hooked == 0 || scalar != 0 {
		t.Fatalf("fused=%d scalar=%d hooked=%d, want fused and hooked > 0, scalar 0", fused, scalar, hooked)
	}
	if events != 0 {
		t.Fatalf("hook saw %d events outside its scope", events)
	}
	tiersPartition(t, "score", m)

	// The full scope keeps every kernel off.
	m = protoMachine(256, 3)
	m.SetScopedHook(func(WriteEvent) uint64 { return 0 }, [2]OpMask{GPU: WritebackOps})
	if err := m.Run(GPU, p, 1<<30); err != nil {
		t.Fatal(err)
	}
	if fused, _, _, _ := m.TierCounts(); fused != 0 {
		t.Fatalf("full scope ran %d fused instructions", fused)
	}
}

// An empty scope on the running device takes the hook-free loop, and a
// hook that narrows itself to nothing hands the rest of the run to it.
func TestEmptyScopeRunsDirect(t *testing.T) {
	p := buildScoreLike(10, 100, 9)
	m := protoMachine(256, 4)
	m.SetScopedHook(func(WriteEvent) uint64 { t.Fatal("hook called on an unwatched device"); return 0 },
		[2]OpMask{CPU: WritebackOps})
	if err := m.Run(GPU, p, 1<<30); err != nil {
		t.Fatal(err)
	}
	if _, scalar, hooked, _ := m.TierCounts(); hooked != 0 || scalar == 0 {
		t.Fatalf("scalar=%d hooked=%d, want a hook-free run", scalar, hooked)
	}

	m = protoMachine(256, 4)
	var calls int
	m.SetFaultHook(func(WriteEvent) uint64 {
		calls++
		m.NarrowHook(GPU, WritebackOps)
		return 0
	})
	if err := m.Run(GPU, p, 1<<30); err != nil {
		t.Fatal(err)
	}
	fused, _, hooked, _ := m.TierCounts()
	if calls != 1 || hooked == 0 || fused == 0 {
		t.Fatalf("calls=%d hooked=%d fused=%d: narrowing to nothing did not switch loops", calls, hooked, fused)
	}
	if m.HookScope(GPU) != 0 || m.HookScope(CPU) != WritebackOps {
		t.Fatalf("scope after narrowing: CPU %x GPU %x", m.HookScope(CPU), m.HookScope(GPU))
	}
	tiersPartition(t, "narrowed", m)
}

// Each kernel's write mask holds exactly the writeback opcodes of its
// claimed instructions.
func TestKernelWriteMasks(t *testing.T) {
	p := buildScoreLike(10, 100, 9)
	for _, k := range p.plan.kernels {
		if k.name != "score-loop" {
			continue
		}
		want := MaskOf(ICMPLT, LD, FADD, FMA, FMAX, ST, IADDI)
		if k.writes != want {
			t.Fatalf("score-loop writes %x, want %x", k.writes, want)
		}
		return
	}
	t.Fatal("score-loop not fused")
}

// LastWriteback is exact after a clean HALT of a `writeback; HALT`
// program, unknown after a trap or for another shape, and 0 before any
// run.
func TestLastWriteback(t *testing.T) {
	b := NewBuilder("tail")
	b.IMovI(0, 0)
	b.IMovI(1, 5)
	top, done := b.NewLabel(), b.NewLabel()
	b.Bind(top)
	b.ICmpLt(2, 0, 1)
	b.Beqz(2, done)
	b.IAddI(0, 0, 1)
	b.Jmp(top)
	b.Bind(done)
	b.FMovI(3, 1)
	b.Halt()
	p := b.MustBuild()
	if p.haltTail != 1 {
		t.Fatalf("haltTail = %d, want 1", p.haltTail)
	}
	m := protoMachine(256, 5)
	if dyn, ok := m.LastWriteback(GPU); !ok || dyn != 0 {
		t.Fatalf("fresh machine: %d %v", dyn, ok)
	}
	var last uint64
	ref := protoMachine(256, 5)
	ref.SetFaultHook(func(ev WriteEvent) uint64 { last = ev.DynIndex; return 0 })
	for run := 0; run < 2; run++ {
		if err := m.Run(GPU, p, 1<<30); err != nil {
			t.Fatal(err)
		}
		if err := ref.Run(GPU, p, 1<<30); err != nil {
			t.Fatal(err)
		}
		if dyn, ok := m.LastWriteback(GPU); !ok || dyn != last {
			t.Fatalf("run %d: LastWriteback = %d %v, want %d", run, dyn, ok, last)
		}
	}
	m.Restore(m.Snapshot())
	if _, ok := m.LastWriteback(GPU); ok {
		t.Fatal("LastWriteback known after a Restore")
	}
	if err := m.Run(GPU, p, 1<<30); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(GPU, p, 5); err == nil {
		t.Fatal("expected a budget trap")
	}
	if _, ok := m.LastWriteback(GPU); ok {
		t.Fatal("LastWriteback known after a trap")
	}

	b = NewBuilder("halt-target")
	done = b.NewLabel()
	b.IMovI(0, 0)
	b.Beqz(0, done)
	b.IMovI(1, 1)
	b.Bind(done)
	b.Halt()
	q := b.MustBuild()
	if q.haltTail != 0 {
		t.Fatalf("branch-target HALT: haltTail = %d, want 0", q.haltTail)
	}
	m = NewMachine(1)
	if err := m.Run(CPU, q, 100); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.LastWriteback(CPU); ok {
		t.Fatal("LastWriteback known for a program without a writeback tail")
	}
}
