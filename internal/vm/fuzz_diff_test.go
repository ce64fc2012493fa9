package vm

import (
	"math"
	"math/rand"
	"testing"
)

// TestFuzzDirectVsHooked pins the "keep the two loops in lockstep"
// contract of machine.go differentially: for randomized programs
// covering every opcode (plus undefined ones), Run with an always-zero
// fault mask and the hook-free runDirect must produce bit-identical
// registers, memory, instruction counts, and traps. Programs are built
// as raw code so they include shapes the Builder would never emit:
// wild branch targets, OOB addresses, undefined opcodes.
func TestFuzzDirectVsHooked(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	budgets := []uint64{0, 1, 7, 64, 700}
	opSeen := make([]bool, NumOpcodes+1)
	for iter := 0; iter < 400; iter++ {
		p := randomProgram(rng, "fuzz")
		for _, in := range p.Code {
			opSeen[in.Op] = true
		}
		proto := protoMachine(64, int64(iter)*7+1)
		for _, budget := range budgets {
			diffRun(t, "fuzz", p, Device(iter%2), budget, proto)
		}
	}
	for op, seen := range opSeen {
		if !seen {
			t.Errorf("fuzz never generated opcode %s", Opcode(op))
		}
	}
}

// randomProgram builds 4–43 instructions of raw code covering every
// opcode (plus undefined ones), so the fuzzers see shapes the Builder
// would never emit: wild branch targets, OOB addresses, undefined
// opcodes. The code is fused like a built program — random code may
// contain fusable runs, and tier 1 must still match.
func randomProgram(rng *rand.Rand, name string) *Program {
	codeLen := 4 + rng.Intn(40)
	code := make([]Instr, codeLen)
	for i := range code {
		// NumOpcodes occasionally lands an undefined opcode, pinning
		// the TrapBadInstr path.
		op := Opcode(rng.Intn(NumOpcodes + 1))
		in := Instr{
			Op: op,
			// NumIntRegs is the smaller file, so indices are valid
			// for float and int registers alike.
			Dst: uint16(rng.Intn(NumIntRegs)),
			A:   uint16(rng.Intn(NumIntRegs)),
			B:   uint16(rng.Intn(NumIntRegs)),
			C:   uint16(rng.Intn(NumIntRegs)),
			Imm: rng.NormFloat64() * 10,
		}
		switch op {
		case JMP, BEQZ, BNEZ:
			// Mostly valid targets, sometimes just outside.
			in.IImm = int64(rng.Intn(codeLen+4) - 2)
		case LD, ST:
			in.IImm = int64(rng.Intn(140) - 70)
		default:
			in.IImm = int64(rng.Intn(2000) - 1000)
		}
		code[i] = in
	}
	p := &Program{Name: name, Code: code, haltTail: haltTail(code)}
	fuse(p)
	return p
}

// TestFuzzFusedTemplates throws random geometry at every fusion
// template — random base addresses (including negative and
// past-the-end), trip counts, offsets, strides, memory sizes, and step
// budgets — and requires tier 1 to stay bit-identical to tier 0 and to
// the hooked loop through every resulting trap and bail-out.
func TestFuzzFusedTemplates(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	builders := []func(r *rand.Rand) *Program{
		func(r *rand.Rand) *Program {
			return buildScoreLike(int64(r.Intn(120)-10), int64(r.Intn(120)-10), int64(r.Intn(24)-3))
		},
		func(r *rand.Rand) *Program {
			return buildRoadnessLike(int64(r.Intn(120)-10), int64(r.Intn(120)-10), int64(r.Intn(24)-3))
		},
		func(r *rand.Rand) *Program {
			return buildConvLike(int64(r.Intn(120)-10), int64(r.Intn(20)-2), int64(r.Intn(90)-20),
				int64(r.Intn(21)-10), int64(r.Intn(21)-10), int64(r.Intn(21)-10), int64(r.Intn(21)-10))
		},
		func(r *rand.Rand) *Program {
			return buildCenterScanLike(int64(r.Intn(120)-10), int64(r.Intn(120)-10), int64(r.Intn(24)-3))
		},
		func(r *rand.Rand) *Program {
			return buildSideScanLike(int64(r.Intn(120)-10), int64(r.Intn(10)-2), int64(r.Intn(24)-3))
		},
		func(r *rand.Rand) *Program {
			return buildLaneEdgeLike(int64(r.Intn(120)-10), int64(r.Intn(120)-10), int64(r.Intn(28)-4))
		},
		func(r *rand.Rand) *Program {
			return buildChecksumLike(int64(r.Intn(120)-10), int64(r.Intn(24)-3))
		},
		func(r *rand.Rand) *Program {
			return buildCopyLike(int64(r.Intn(120)-10), int64(r.Intn(120)-10),
				int64(r.Intn(30)-10), int64(r.Intn(60)-10), int64(1+r.Intn(4)))
		},
	}
	for iter := 0; iter < 400; iter++ {
		p := builders[iter%len(builders)](rng)
		proto := protoMachine(8+rng.Intn(192), int64(iter)+5000)
		budget := uint64(rng.Intn(2500))
		diffRun(t, p.Name, p, GPU, budget, proto)
	}
}

// TestFuzzExtremeRegisterValues drives the fused templates from
// register states at the int64 edges (min/max counters, bounds, and
// bases), where trip-count and address arithmetic overflow if done
// naively. The kernels must bail or match exactly — never diverge.
func TestFuzzExtremeRegisterValues(t *testing.T) {
	extremes := []int64{math.MinInt64, math.MinInt64 + 1, -maxFuseBase - 1, -maxFuseBase,
		-1, 0, 1, maxFuseBase - 1, maxFuseBase, math.MaxInt64 - 1, math.MaxInt64}
	rng := rand.New(rand.NewSource(777))
	p := buildScoreLike(0, 0, 0) // registers get overwritten below
	q := buildCopyLike(0, 0, 0, 1, 1)
	ck := buildChecksumLike(0, 0)
	for iter := 0; iter < 300; iter++ {
		proto := protoMachine(32, int64(iter)+9000)
		for d := range proto.dev {
			for i := range proto.dev[d].r {
				if rng.Intn(2) == 0 {
					proto.dev[d].r[i] = extremes[rng.Intn(len(extremes))]
				}
			}
		}
		// Strip the register-initializing prologues by entering at the
		// loop top, so the extreme values reach the kernels: prologue is
		// 5 movs for score, 2 for copy, 6 for checksum.
		ps := &Program{Name: "score-extreme", Code: p.Code, entry: 5}
		pc := &Program{Name: "copy-extreme", Code: q.Code, entry: 2}
		pk := &Program{Name: "checksum-extreme", Code: ck.Code, entry: 6}
		fuse(ps)
		fuse(pc)
		fuse(pk)
		budget := uint64(rng.Intn(300))
		diffRun(t, ps.Name, ps, CPU, budget, proto)
		diffRun(t, pc.Name, pc, CPU, budget, proto)
		diffRun(t, pk.Name, pk, CPU, budget, proto)
	}
}
