package vm

import (
	"fmt"
	"math/rand"
	"testing"
)

// recHook returns a fault hook that logs every writeback event it is
// offered and flips `mask` into the value at dynamic index fireAt —
// the shape of a transient injector, rebuilt per machine so batch and
// solo runs keep independent logs that must come out identical.
func recHook(fireAt, mask uint64, log *[]WriteEvent) FaultHook {
	return func(ev WriteEvent) uint64 {
		*log = append(*log, ev)
		if ev.DynIndex == fireAt {
			return mask
		}
		return 0
	}
}

// TestFuzzLanesVsSolo extends the differential fuzz harness to
// lockstep lanes: for randomized raw programs (every opcode, undefined
// ones, wild branch targets, OOB addresses) and random lane widths,
// each lane of RunLanes must finish bit-identical — registers, memory,
// counts, traps, and the exact per-lane hook event stream — to running
// the same machine solo through Machine.Run. Lanes mix hook-free,
// inert-hooked, and firing-hooked machines so packs exercise data
// divergence, control-divergence detach, and per-lane traps.
func TestFuzzLanesVsSolo(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	budgets := []uint64{0, 1, 7, 64, 700}
	for iter := 0; iter < 250; iter++ {
		p := randomProgram(rng, "lanefuzz")
		width := 2 + rng.Intn(MaxLanes-1)
		d := Device(iter % 2)
		type laneCfg struct {
			seed   int64
			hooked bool
			fireAt uint64
			mask   uint64
		}
		cfgs := make([]laneCfg, width)
		for k := range cfgs {
			c := laneCfg{seed: int64(iter*37+k) + 1}
			switch rng.Intn(3) {
			case 1:
				// Transient-style hook: fires once at a random index.
				c.hooked, c.fireAt, c.mask = true, uint64(1+rng.Intn(200)), 1<<uint(rng.Intn(64))
			case 2:
				// Hooked but inert: fireAt 0 never matches (DynIndex
				// starts at 1), pinning the zero-mask event plumbing.
				c.hooked = true
			}
			cfgs[k] = c
		}
		for _, budget := range budgets {
			batchMs := make([]*Machine, width)
			soloMs := make([]*Machine, width)
			batchLogs := make([][]WriteEvent, width)
			soloLogs := make([][]WriteEvent, width)
			for k, c := range cfgs {
				batchMs[k] = protoMachine(64, c.seed)
				soloMs[k] = protoMachine(64, c.seed)
				if c.hooked {
					batchMs[k].SetFaultHook(recHook(c.fireAt, c.mask, &batchLogs[k]))
					soloMs[k].SetFaultHook(recHook(c.fireAt, c.mask, &soloLogs[k]))
				}
			}
			bErrs := RunLanes(d, p, budget, batchMs)
			for k := range soloMs {
				sErr := soloMs[k].Run(d, p, budget)
				label := fmt.Sprintf("iter=%d budget=%d lane=%d/%d", iter, budget, k, width)
				machinesEqual(t, label, batchMs[k], soloMs[k], bErrs[k], sErr)
				if len(batchLogs[k]) != len(soloLogs[k]) {
					t.Fatalf("%s: hook saw %d events in batch, %d solo", label, len(batchLogs[k]), len(soloLogs[k]))
				}
				for i := range batchLogs[k] {
					if batchLogs[k][i] != soloLogs[k][i] {
						t.Fatalf("%s: hook event %d: %+v vs %+v", label, i, batchLogs[k][i], soloLogs[k][i])
					}
				}
			}
		}
	}
}

// TestLaneTierAccounting: lockstep-executed instructions land in the
// batched tier counter, and the four tiers plus both loops still
// partition the architectural count exactly.
func TestLaneTierAccounting(t *testing.T) {
	p := buildScoreLike(10, 100, 9)
	ms := []*Machine{protoMachine(256, 1), protoMachine(256, 2)}
	for _, err := range RunLanes(GPU, p, 1<<30, ms) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for k, m := range ms {
		fused, scalar, hooked, batched := m.TierCounts()
		if batched == 0 {
			t.Fatalf("lane %d: no batched instructions counted", k)
		}
		if got, want := fused+scalar+hooked+batched, m.InstrCount(GPU); got != want {
			t.Fatalf("lane %d: tier counters sum to %d, dev count %d", k, got, want)
		}
	}
}

// TestLaneSnapshotRejoinsLockstep is the snapshot-under-batch-state
// round-trip: a lane is snapshotted between lockstep invocations (with
// a genuinely mid-program register/count state left by a step-budget
// trap), restored into a fresh Machine, swapped back into the pack,
// and must re-enter lockstep bit-identically to an undisturbed control
// pack — including the hook DynIndex continuity that only survives if
// the dynamic instruction counter round-trips.
func TestLaneSnapshotRejoinsLockstep(t *testing.T) {
	p := buildScoreLike(10, 100, 9)
	const width = 3

	// Find the per-call instruction count so the second call's hook
	// fire index provably lands in call two.
	probe := NewMachine(1)
	probe.Restore(protoMachine(256, 11).Snapshot())
	if err := probe.Run(GPU, p, 1<<30); err != nil {
		t.Fatal(err)
	}
	perCall := probe.InstrCount(GPU)
	fireAt := perCall + 37
	const mask = uint64(1) << 13

	build := func(logs *[width][]WriteEvent) []*Machine {
		ms := make([]*Machine, width)
		for k := range ms {
			ms[k] = protoMachine(256, int64(11+k))
			kk := k
			ms[k].SetFaultHook(recHook(fireAt, mask, &logs[kk]))
		}
		return ms
	}
	var packLogs, ctrlLogs [width][]WriteEvent
	pack := build(&packLogs)
	ctrl := build(&ctrlLogs)

	// Call one stops mid-program: every lane must hit the step budget
	// in lockstep.
	shortBudget := perCall / 2
	for k, err := range RunLanes(GPU, p, shortBudget, pack) {
		tr, ok := err.(*Trap)
		if !ok || tr.Kind != TrapStepBudget {
			t.Fatalf("lane %d: want mid-program budget trap, got %v", k, err)
		}
	}
	for _, err := range RunLanes(GPU, p, shortBudget, ctrl) {
		if err == nil {
			t.Fatal("control pack did not trap")
		}
	}

	// Snapshot lane 1's mid-batch state and restore it into a fresh
	// machine; the hook is not part of MachineState and is re-armed by
	// hand, appending to the same log.
	st := pack[1].Snapshot()
	fresh := NewMachine(pack[1].MemSize())
	fresh.Restore(st)
	fresh.SetFaultHook(recHook(fireAt, mask, &packLogs[1]))
	pack[1] = fresh

	// Call two re-enters lockstep at the program entry and runs to
	// completion; the restored lane's fault fires here.
	bErrs := RunLanes(GPU, p, 1<<30, pack)
	cErrs := RunLanes(GPU, p, 1<<30, ctrl)
	for k := range pack {
		label := fmt.Sprintf("post-restore lane %d", k)
		machinesEqual(t, label, pack[k], ctrl[k], bErrs[k], cErrs[k])
		if len(packLogs[k]) != len(ctrlLogs[k]) {
			t.Fatalf("%s: %d hook events vs control %d", label, len(packLogs[k]), len(ctrlLogs[k]))
		}
		for i := range packLogs[k] {
			if packLogs[k][i] != ctrlLogs[k][i] {
				t.Fatalf("%s: hook event %d: %+v vs %+v", label, i, packLogs[k][i], ctrlLogs[k][i])
			}
		}
	}
	// The fault must actually have fired in call two on every lane.
	fired := false
	for _, ev := range packLogs[1] {
		if ev.DynIndex == fireAt {
			fired = true
		}
	}
	if !fired {
		t.Fatal("restored lane's hook never reached its fire index — DynIndex continuity broken")
	}
}
