package agent

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"diverseav/internal/sensor"
	"diverseav/internal/vm"
)

// Differential validation of the tiered VM on the production agent
// programs: for every program × device × budget × machine state, the
// tier-1 fused path, the tier-0 scalar path, and the hooked loop with
// an always-zero fault mask must be bit-identical in registers, memory,
// instruction counts, and traps. This is the agent-level counterpart of
// the template tests in internal/vm — it exercises the real register
// allocation and memory layout instead of synthetic look-alikes.

func randomFrame(rng *rand.Rand) sensor.Frame {
	f := sensor.NewFrame()
	for i := range f {
		f[i] = byte(rng.Intn(256))
	}
	return f
}

func statesEqual(t *testing.T, ctx string, a, b *vm.MachineState) {
	t.Helper()
	if len(a.Mem) != len(b.Mem) {
		t.Fatalf("%s: memory size %d vs %d", ctx, len(a.Mem), len(b.Mem))
	}
	for i := range a.Mem {
		if math.Float64bits(a.Mem[i]) != math.Float64bits(b.Mem[i]) {
			t.Fatalf("%s: mem[%d] = %x vs %x", ctx, i,
				math.Float64bits(a.Mem[i]), math.Float64bits(b.Mem[i]))
		}
	}
	for d := range a.Dev {
		if a.Dev[d].Count != b.Dev[d].Count {
			t.Fatalf("%s: dev %d count %d vs %d", ctx, d, a.Dev[d].Count, b.Dev[d].Count)
		}
		for i := range a.Dev[d].F {
			if math.Float64bits(a.Dev[d].F[i]) != math.Float64bits(b.Dev[d].F[i]) {
				t.Fatalf("%s: dev %d f%d = %x vs %x", ctx, d, i,
					math.Float64bits(a.Dev[d].F[i]), math.Float64bits(b.Dev[d].F[i]))
			}
		}
		for i := range a.Dev[d].R {
			if a.Dev[d].R[i] != b.Dev[d].R[i] {
				t.Fatalf("%s: dev %d r%d = %d vs %d", ctx, d, i, a.Dev[d].R[i], b.Dev[d].R[i])
			}
		}
	}
}

func errsEqual(t *testing.T, ctx string, a, b error) {
	t.Helper()
	switch {
	case a == nil && b == nil:
	case a == nil || b == nil:
		t.Fatalf("%s: error %v vs %v", ctx, a, b)
	case a.Error() != b.Error():
		t.Fatalf("%s: error %q vs %q", ctx, a.Error(), b.Error())
	}
}

// runVariant restores st into a scratch machine, runs the program in the
// requested mode, and returns the resulting state and trap.
func runVariant(scratch *vm.Machine, st *vm.MachineState, d vm.Device,
	p *vm.Program, budget uint64, tier int, hooked bool) (*vm.MachineState, error) {
	scratch.Restore(st)
	scratch.SetMaxTier(tier)
	if hooked {
		scratch.SetFaultHook(func(ev vm.WriteEvent) uint64 { return 0 })
	} else {
		scratch.SetFaultHook(nil)
	}
	err := scratch.Run(d, p, budget)
	scratch.SetFaultHook(nil)
	scratch.SetMaxTier(1)
	return scratch.Snapshot(), err
}

// TestAgentProgramsDifferential runs the full production pipeline over
// several frames. Before each pipeline stage executes for real, the
// stage is replayed from the same snapshot under tier 1, tier 0, and
// the zero-mask hooked loop at the production budget plus a sweep of
// truncated budgets (which land mid-kernel, in kernel bail-outs, and in
// budget traps).
func TestAgentProgramsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := New("diff")
	progs, devs, budgets := a.Programs()
	scratch := vm.NewMachine(MemWords)

	for frame := 0; frame < 4; frame++ {
		in := &Input{
			Center:     randomFrame(rng),
			Left:       randomFrame(rng),
			Right:      randomFrame(rng),
			Speed:      rng.Float64() * 30,
			Dt:         0.1,
			SpeedLimit: 20,
			FrameIndex: frame,
		}
		marshalInput(a.mach.Mem(), in)

		for stage := 0; stage < 3; stage++ {
			st := a.mach.Snapshot()
			sweep := []uint64{0, 1, 17, 997, 38_461, budgets[stage]}
			for _, budget := range sweep {
				ctx := fmt.Sprintf("frame %d stage %d (%s) budget %d",
					frame, stage, progs[stage].Name, budget)
				s1, e1 := runVariant(scratch, st, devs[stage], progs[stage], budget, 1, false)
				s0, e0 := runVariant(scratch, st, devs[stage], progs[stage], budget, 0, false)
				sh, eh := runVariant(scratch, st, devs[stage], progs[stage], budget, 1, true)
				errsEqual(t, ctx+" tier1-vs-tier0", e1, e0)
				statesEqual(t, ctx+" tier1-vs-tier0", s1, s0)
				errsEqual(t, ctx+" tier1-vs-hooked", e1, eh)
				statesEqual(t, ctx+" tier1-vs-hooked", s1, sh)
			}
			// Advance the real pipeline state on the tier-1 path.
			if err := a.mach.Run(devs[stage], progs[stage], budgets[stage]); err != nil {
				t.Fatalf("frame %d stage %d: unexpected trap: %v", frame, stage, err)
			}
		}
	}
}

// TestAgentProgramsFuse pins which production loops actually compile to
// tier-1 kernels, so a refactor of the agent programs that silently
// drops fusion (and its ~3× speedup) fails loudly rather than just
// showing up as a benchmark regression.
func TestAgentProgramsFuse(t *testing.T) {
	a := New("fuse")
	progs, _, _ := a.Programs()

	count := func(p *vm.Program) map[string]int {
		m := map[string]int{}
		for _, n := range p.FusedKernels() {
			m[n]++
		}
		return m
	}

	cpuIn := count(progs[0])
	if cpuIn["copy-loop"] != 1 {
		t.Errorf("cpuIn fused %v, want 1 copy-loop", cpuIn)
	}
	gpu := count(progs[1])
	want := map[string]int{
		"score-loop":       3,
		"conv-loop":        1,
		"roadness-loop":    4,
		"center-scan-loop": 1,
		"side-scan-loop":   2,
		"lane-edge-loop":   4,
	}
	for name, n := range want {
		if gpu[name] != n {
			t.Errorf("gpu fused %d × %s, want %d (all: %v)", gpu[name], name, n, gpu)
		}
	}
	cpuOut := count(progs[2])
	if cpuOut["checksum-loop"] != 1 {
		t.Errorf("cpuOut fused %v, want 1 checksum-loop", cpuOut)
	}
}
