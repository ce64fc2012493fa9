package vm

import "testing"

// TierCounts is the flight recorder's view of execution-tier usage: the
// three path counters must partition every dynamic instruction, agree
// with the architectural counts, and survive checkpoint Restore.
func TestTierCounts(t *testing.T) {
	p := buildScoreLike(10, 100, 9)
	proto := protoMachine(256, 7)
	st := proto.Snapshot()

	run := func(tier int, hooked bool) *Machine {
		m := NewMachine(1)
		m.Restore(st)
		m.SetMaxTier(tier)
		if hooked {
			m.SetFaultHook(func(WriteEvent) uint64 { return 0 })
		}
		if err := m.Run(GPU, p, 1<<30); err != nil {
			t.Fatalf("tier=%d hooked=%v: %v", tier, hooked, err)
		}
		return m
	}

	m1 := run(1, false)
	fused, scalar, hooked := m1.TierCounts()
	if fused == 0 {
		t.Fatal("tier-1 run executed no fused instructions")
	}
	if hooked != 0 {
		t.Fatalf("hook-free run counted %d hooked instructions", hooked)
	}
	if total := m1.InstrCount(GPU); fused+scalar != total {
		t.Fatalf("fused+scalar = %d, want dev count %d", fused+scalar, total)
	}

	m0 := run(0, false)
	fused, scalar, hooked = m0.TierCounts()
	if fused != 0 || hooked != 0 {
		t.Fatalf("tier-0 run counted fused=%d hooked=%d, want 0", fused, hooked)
	}
	if scalar != m0.InstrCount(GPU) {
		t.Fatalf("scalar = %d, want dev count %d", scalar, m0.InstrCount(GPU))
	}

	mh := run(1, true)
	fused, scalar, hooked = mh.TierCounts()
	if fused != 0 || scalar != 0 {
		t.Fatalf("hooked run counted fused=%d scalar=%d, want 0", fused, scalar)
	}
	if hooked != mh.InstrCount(GPU) {
		t.Fatalf("hooked = %d, want dev count %d", hooked, mh.InstrCount(GPU))
	}
}

// Restore resets architectural state (including dev counts) but must
// leave the observational tier counters accumulating, so fork campaigns
// report every instruction they actually executed.
func TestTierCountsSurviveRestore(t *testing.T) {
	p := buildScoreLike(10, 100, 9)
	m := NewMachine(1)
	m.Restore(protoMachine(256, 8).Snapshot())
	st := m.Snapshot()

	if err := m.Run(GPU, p, 1<<30); err != nil {
		t.Fatal(err)
	}
	f1, s1, _ := m.TierCounts()

	m.Restore(st)
	if m.InstrCount(GPU) != 0 {
		t.Fatalf("dev count = %d after restore, want 0", m.InstrCount(GPU))
	}
	if f, s, _ := m.TierCounts(); f != f1 || s != s1 {
		t.Fatalf("tier counters reset by Restore: %d/%d, want %d/%d", f, s, f1, s1)
	}

	if err := m.Run(GPU, p, 1<<30); err != nil {
		t.Fatal(err)
	}
	if f2, s2, _ := m.TierCounts(); f2 != 2*f1 || s2 != 2*s1 {
		t.Fatalf("second run did not accumulate: %d/%d, want %d/%d", f2, s2, 2*f1, 2*s1)
	}
}

// A trap exit must still flush the tier counters.
func TestTierCountsOnTrap(t *testing.T) {
	b := NewBuilder("oob")
	b.IMovI(5, 1<<20)
	b.Ld(0, 5, 0)
	b.Halt()
	p := b.MustBuild()
	m := NewMachine(8)
	if err := m.Run(CPU, p, 1000); err == nil {
		t.Fatal("expected OOB trap")
	}
	_, scalar, _ := m.TierCounts()
	if scalar != m.InstrCount(CPU) || scalar == 0 {
		t.Fatalf("scalar = %d after trap, want dev count %d (nonzero)", scalar, m.InstrCount(CPU))
	}
}
