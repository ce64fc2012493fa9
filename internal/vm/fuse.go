package vm

import "math"

// Tier-1 execution: fused superinstruction kernels.
//
// The Machine has two execution tiers. Tier 0 is the per-instruction
// loop (Run / runDirect): it is the fault-injection ground truth and the
// fallback for everything. Tier 1 is this file: at program-build time,
// fuse scans the code for the Builder's known loop idioms — the
// LD/FMA/ST reduction bodies of the agent network, ICMPLT/BNEZ latches,
// FMOVI/IMOVI prologue runs — and compiles each match into a fusedKernel
// that executes whole loop iterations in straight-line Go over m.mem and
// the register files. runDirect dispatches to a kernel whenever the
// program counter lands on a kernel entry; the hooked loop does too
// when none of the opcodes the kernel writes is in the fault hook's
// scope (a hook is offered only in-scope writebacks, so a kernel that
// writes none of them skips no hook call).
//
// The hard invariant: a kernel is a pure function of (registers, memory)
// at its entry pc whose effect is bit-identical to scalar execution from
// that pc — same register values, same memory, same traps at the same
// dynamic instruction index, same InstrCount. fi.Profile's DynIndex→step
// mapping, checkpoint forking, and golden traces all depend on it. The
// invariant is kept structurally, by three rules:
//
//  1. Exact matching. A matcher binds the idiom's registers and
//     immediates from the actual instructions and refuses to fuse when
//     any register is aliased (all bound int registers pairwise
//     distinct, likewise floats) or any immediate is large enough to
//     risk overflow in the kernel's address arithmetic. Unfusable code
//     simply stays on tier 0.
//
//  2. Bail-out, don't emulate. A kernel only commits fully completed,
//     trap-free, in-budget iterations. Before touching state it computes
//     how many iterations fit the remaining step budget and keep every
//     memory access in bounds; anything unusual — a trap ahead, budget
//     nearly exhausted, oversized addresses — makes it stop at the loop
//     top and return, and the scalar loop reproduces the trap (or the
//     odd iteration) with exact per-instruction semantics. A kernel that
//     can make no progress at all returns steps == 0 and the dispatcher
//     falls through to the scalar switch for that pass.
//
//  3. Transliterated bodies. Kernel bodies perform the same float
//     operations in the same order on the same values as the scalar
//     loop, so results are bit-identical. The Go spec lets a compiler
//     fuse x*y + z into one fused multiply-add (arm64, ppc64le, s390x
//     and riscv64 do; amd64 does not), and only an explicit conversion
//     forbids it, so every FMA here and in machine.go is written
//     float64(a*b) + c: two roundings on every target. Every
//     architecturally written register holds its last-iteration value
//     when the kernel returns.
//
// Kernels keep no state of their own, so snapshots/checkpoints are
// unaffected: MachineState already captures everything tier 1 reads or
// writes.

// Fusion safety limits. Address arithmetic inside a kernel must not wrap
// int64: iterations per kernel call are capped at maxFuseIters, matched
// immediates (offsets, strides) at |v| < maxFuseOffset, and runtime base
// addresses at |v| < maxFuseBase, so
// |base + i*stride + off| < 2^61 + 2^60 + 2^30 stays well inside int64.
// Values outside these bounds bail to tier 0, which wraps exactly like
// the hardware being modeled.
const (
	maxFuseIters  = 1 << 30
	maxFuseOffset = 1 << 30
	maxFuseBase   = int64(1) << 61
)

// kernelFn executes fused iterations at the kernel's entry pc. remaining
// is the unspent step budget (≥ 1). It returns the number of dynamic
// instructions executed (0 = no progress, state untouched) and the next
// pc (the loop top for a partial run, the fall-through pc after a
// completed loop).
type kernelFn func(m *Machine, ds *deviceState, remaining uint64) (steps uint64, nextPC int)

// fusedKernel is one compiled superinstruction.
type fusedKernel struct {
	name  string // fusion-catalog name, e.g. "score-loop"
	entry int    // pc the kernel replaces
	fn    kernelFn
	// writes is the set of writeback opcodes among the claimed
	// instructions — everything the kernel can commit. Control-flow
	// opcodes are left out: they never reach a hook, and counting the
	// loop latches would keep every kernel off the hooked loop.
	writes OpMask
}

// fusionPlan is the tier-1 compilation of a Program: a pc → kernel-index
// map (-1 = no kernel) plus the kernel table.
type fusionPlan struct {
	pcMap   []int32
	kernels []fusedKernel
}

// fuse builds the tier-1 plan for a program. It is called once from
// Builder.Build, after branch targets are resolved. Programs with no
// fusable regions get no plan and run entirely on tier 0.
func fuse(p *Program) {
	code := p.Code
	var plan *fusionPlan
	for pc := 0; pc < len(code); {
		k, claimed, ok := matchAt(code, pc)
		if !ok {
			pc++
			continue
		}
		if plan == nil {
			plan = &fusionPlan{pcMap: make([]int32, len(code))}
			for i := range plan.pcMap {
				plan.pcMap[i] = -1
			}
		}
		for _, in := range code[pc : pc+claimed] {
			k.writes |= MaskOf(in.Op) & WritebackOps
		}
		plan.pcMap[pc] = int32(len(plan.kernels))
		plan.kernels = append(plan.kernels, k)
		pc += claimed
	}
	p.plan = plan
}

// matchAt tries every matcher at pc, longest idioms first, and returns
// the kernel plus the number of instructions it claims.
func matchAt(code []Instr, pc int) (fusedKernel, int, bool) {
	type matcher func([]Instr, int) (fusedKernel, int, bool)
	for _, m := range []matcher{
		matchRoadnessLoop,
		matchConvLoop,
		matchScoreLoop,
		matchCenterScanLoop,
		matchLaneEdgeLoop,
		matchChecksumLoop,
		matchSideScanLoop,
		matchCopyLoop,
		matchMovRun,
	} {
		if k, n, ok := m(code, pc); ok {
			return k, n, true
		}
	}
	return fusedKernel{}, 0, false
}

// distinctRegs reports whether all register bindings are pairwise
// distinct. Matchers require this so kernels can keep registers in
// locals: with aliasing, the write order inside an iteration would
// matter in ways the transliterated body does not reproduce.
func distinctRegs(rs ...uint16) bool {
	for i := range rs {
		for j := i + 1; j < len(rs); j++ {
			if rs[i] == rs[j] {
				return false
			}
		}
	}
	return true
}

// smallOff reports whether an immediate is safe for kernel address math.
func smallOff(v int64) bool { return v > -maxFuseOffset && v < maxFuseOffset }

// safeIters shrinks a desired iteration count j so that every address
// base + i*stride + off, off ∈ [lo, hi], i ∈ [0, result), lies inside
// [0, msz). stride must be nonzero and |stride|, |lo|, |hi| <
// maxFuseOffset; j must be ≤ maxFuseIters. Returns 0 (bail to tier 0)
// when the first iteration already faults or base is outside
// ±maxFuseBase.
func safeIters(j uint64, base, stride, lo, hi int64, msz int) uint64 {
	if j == 0 {
		return 0
	}
	if base >= maxFuseBase || base <= -maxFuseBase {
		return 0
	}
	m := int64(msz)
	if stride > 0 {
		if base+lo < 0 || base+hi >= m {
			return 0
		}
		n := uint64((m-1-hi-base)/stride) + 1
		if n < j {
			j = n
		}
		return j
	}
	if base+lo < 0 || base+hi >= m {
		return 0
	}
	n := uint64((base+lo)/(-stride)) + 1
	if n < j {
		j = n
	}
	return j
}

// ltTripCount returns how many times the body of a top-tested
// "while (r[c] < r[e])" loop with a +1 counter executes from counter
// value c. Exact for all int64 pairs: the counter increments monotonically
// through the signed range, so for c < e the count is e − c, which uint64
// subtraction yields without overflow.
func ltTripCount(c, e int64) uint64 {
	if c >= e {
		return 0
	}
	return uint64(e) - uint64(c)
}

// --- score-loop -----------------------------------------------------------
//
// The per-pixel obstacle-score body (agent.emitScoreLoop): top-tested
// ICMPLT/BEQZ latch, three consecutive LDs of an RGB triple, two
// FADD+FMA chroma reductions, FMAX, one ST, three +stride counters,
// JMP. 15 instructions per iteration.

func matchScoreLoop(code []Instr, p int) (fusedKernel, int, bool) {
	const k = 15
	if p+k > len(code) {
		return fusedKernel{}, 0, false
	}
	done := int64(p + k)
	i := code[p : p+k : p+k]
	if i[0].Op != ICMPLT || i[1].Op != BEQZ || i[1].A != i[0].Dst || i[1].IImm != done {
		return fusedKernel{}, 0, false
	}
	rF, rC, rE := i[0].Dst, i[0].A, i[0].B
	if i[2].Op != LD || i[3].Op != LD || i[4].Op != LD {
		return fusedKernel{}, 0, false
	}
	rS := i[2].A
	f0, f1, f2 := i[2].Dst, i[3].Dst, i[4].Dst
	if i[3].A != rS || i[4].A != rS || i[2].IImm != 0 || i[3].IImm != 1 || i[4].IImm != 2 {
		return fusedKernel{}, 0, false
	}
	if i[5].Op != FADD || i[5].A != f0 || i[5].B != f1 {
		return fusedKernel{}, 0, false
	}
	f3 := i[5].Dst
	if i[6].Op != FMA || i[6].A != f3 || i[6].C != f2 {
		return fusedKernel{}, 0, false
	}
	f4, fNH := i[6].Dst, i[6].B
	if i[7].Op != FADD || i[7].Dst != f3 || i[7].A != f1 || i[7].B != f2 {
		return fusedKernel{}, 0, false
	}
	if i[8].Op != FMA || i[8].A != f3 || i[8].B != fNH || i[8].C != f0 {
		return fusedKernel{}, 0, false
	}
	f5 := i[8].Dst
	if i[9].Op != FMAX || i[9].A != f4 || i[9].B != f5 {
		return fusedKernel{}, 0, false
	}
	fSc := i[9].Dst
	if i[10].Op != ST || i[10].B != fSc || i[10].IImm != 0 {
		return fusedKernel{}, 0, false
	}
	rD := i[10].A
	if i[11].Op != IADDI || i[11].Dst != rS || i[11].A != rS || i[11].IImm != 3 ||
		i[12].Op != IADDI || i[12].Dst != rD || i[12].A != rD || i[12].IImm != 1 ||
		i[13].Op != IADDI || i[13].Dst != rC || i[13].A != rC || i[13].IImm != 1 ||
		i[14].Op != JMP || i[14].IImm != int64(p) {
		return fusedKernel{}, 0, false
	}
	if !distinctRegs(rF, rC, rE, rS, rD) || !distinctRegs(f0, f1, f2, f3, f4, f5, fSc, fNH) {
		return fusedKernel{}, 0, false
	}
	vF, vC, vE, vS, vD := int(rF), int(rC), int(rE), int(rS), int(rD)
	w0, w1, w2, w3, w4, w5, wSc, wNH := int(f0), int(f1), int(f2), int(f3), int(f4), int(f5), int(fSc), int(fNH)
	fn := func(m *Machine, ds *deviceState, rem uint64) (uint64, int) {
		c, e := ds.r[vC], ds.r[vE]
		n := ltTripCount(c, e)
		if n == 0 {
			if rem < 2 {
				return 0, p
			}
			ds.r[vF] = 0
			return 2, p + k
		}
		j := n
		if b := rem / k; b < j {
			j = b
		}
		if j > maxFuseIters {
			j = maxFuseIters
		}
		mem := m.mem
		s, d := ds.r[vS], ds.r[vD]
		j = safeIters(j, s, 3, 0, 2, len(mem))
		j = safeIters(j, d, 1, 0, 0, len(mem))
		if j == 0 {
			return 0, p
		}
		nh := ds.f[wNH]
		var t0, t1, t2, t3, t4, t5, sc float64
		for it := uint64(0); it < j; it++ {
			t0 = mem[s]
			t1 = mem[s+1]
			t2 = mem[s+2]
			t3 = t0 + t1
			t4 = float64(t3*nh) + t2
			t3 = t1 + t2
			t5 = float64(t3*nh) + t0
			sc = math.Max(t4, t5)
			mem[d] = sc
			s += 3
			d++
			c++
		}
		ds.f[w0], ds.f[w1], ds.f[w2], ds.f[w3], ds.f[w4], ds.f[w5], ds.f[wSc] = t0, t1, t2, t3, t4, t5, sc
		ds.r[vS], ds.r[vD], ds.r[vC] = s, d, c
		if j == n && rem >= k*n+2 {
			ds.r[vF] = 0
			return k*n + 2, p + k
		}
		ds.r[vF] = 1
		return k * j, p
	}
	return fusedKernel{name: "score-loop", entry: p, fn: fn}, k, true
}

// --- roadness-loop --------------------------------------------------------
//
// The road-classification body (agent.emitRoadness): RGB triple load,
// two |a−b| chroma tests, a luminance band test, FSEL 1/0, ST, three
// counters. 24 instructions per iteration.

func matchRoadnessLoop(code []Instr, p int) (fusedKernel, int, bool) {
	const k = 24
	if p+k > len(code) {
		return fusedKernel{}, 0, false
	}
	done := int64(p + k)
	i := code[p : p+k : p+k]
	if i[0].Op != ICMPLT || i[1].Op != BEQZ || i[1].A != i[0].Dst || i[1].IImm != done {
		return fusedKernel{}, 0, false
	}
	rF, rC, rE := i[0].Dst, i[0].A, i[0].B
	if i[2].Op != LD || i[3].Op != LD || i[4].Op != LD {
		return fusedKernel{}, 0, false
	}
	rS := i[2].A
	f0, f1, f2 := i[2].Dst, i[3].Dst, i[4].Dst
	if i[3].A != rS || i[4].A != rS || i[2].IImm != 0 || i[3].IImm != 1 || i[4].IImm != 2 {
		return fusedKernel{}, 0, false
	}
	if i[5].Op != FSUB || i[5].A != f0 || i[5].B != f1 {
		return fusedKernel{}, 0, false
	}
	f3 := i[5].Dst
	if i[6].Op != FABS || i[6].Dst != f3 || i[6].A != f3 {
		return fusedKernel{}, 0, false
	}
	if i[7].Op != FCMPLT || i[7].A != f3 {
		return fusedKernel{}, 0, false
	}
	rT0, fCh := i[7].Dst, i[7].B
	if i[8].Op != FSUB || i[8].A != f1 || i[8].B != f2 {
		return fusedKernel{}, 0, false
	}
	f4 := i[8].Dst
	if i[9].Op != FABS || i[9].Dst != f4 || i[9].A != f4 {
		return fusedKernel{}, 0, false
	}
	if i[10].Op != FCMPLT || i[10].A != f4 || i[10].B != fCh {
		return fusedKernel{}, 0, false
	}
	rT1 := i[10].Dst
	if i[11].Op != IAND || i[11].Dst != rT0 || i[11].A != rT0 || i[11].B != rT1 {
		return fusedKernel{}, 0, false
	}
	if i[12].Op != FADD || i[12].A != f0 || i[12].B != f1 {
		return fusedKernel{}, 0, false
	}
	f5 := i[12].Dst
	if i[13].Op != FADD || i[13].Dst != f5 || i[13].A != f5 || i[13].B != f2 {
		return fusedKernel{}, 0, false
	}
	if i[14].Op != FCMPLT || i[14].Dst != rT1 || i[14].A != f5 {
		return fusedKernel{}, 0, false
	}
	fHi := i[14].B
	if i[15].Op != IAND || i[15].Dst != rT0 || i[15].A != rT0 || i[15].B != rT1 {
		return fusedKernel{}, 0, false
	}
	if i[16].Op != FCMPLE || i[16].Dst != rT1 || i[16].B != f5 {
		return fusedKernel{}, 0, false
	}
	fLo := i[16].A
	if i[17].Op != IAND || i[17].Dst != rT0 || i[17].A != rT0 || i[17].B != rT1 {
		return fusedKernel{}, 0, false
	}
	if i[18].Op != FSEL || i[18].C != rT0 {
		return fusedKernel{}, 0, false
	}
	fR, fOne, fZero := i[18].Dst, i[18].A, i[18].B
	if i[19].Op != ST || i[19].B != fR || i[19].IImm != 0 {
		return fusedKernel{}, 0, false
	}
	rD := i[19].A
	if i[20].Op != IADDI || i[20].Dst != rS || i[20].A != rS || i[20].IImm != 3 ||
		i[21].Op != IADDI || i[21].Dst != rD || i[21].A != rD || i[21].IImm != 1 ||
		i[22].Op != IADDI || i[22].Dst != rC || i[22].A != rC || i[22].IImm != 1 ||
		i[23].Op != JMP || i[23].IImm != int64(p) {
		return fusedKernel{}, 0, false
	}
	if !distinctRegs(rF, rC, rE, rT0, rT1, rS, rD) ||
		!distinctRegs(f0, f1, f2, f3, f4, f5, fR, fCh, fHi, fLo, fOne, fZero) {
		return fusedKernel{}, 0, false
	}
	vF, vC, vE, vT0, vT1, vS, vD := int(rF), int(rC), int(rE), int(rT0), int(rT1), int(rS), int(rD)
	w0, w1, w2, w3, w4, w5, wR := int(f0), int(f1), int(f2), int(f3), int(f4), int(f5), int(fR)
	wCh, wHi, wLo, wOne, wZero := int(fCh), int(fHi), int(fLo), int(fOne), int(fZero)
	fn := func(m *Machine, ds *deviceState, rem uint64) (uint64, int) {
		c, e := ds.r[vC], ds.r[vE]
		n := ltTripCount(c, e)
		if n == 0 {
			if rem < 2 {
				return 0, p
			}
			ds.r[vF] = 0
			return 2, p + k
		}
		j := n
		if b := rem / k; b < j {
			j = b
		}
		if j > maxFuseIters {
			j = maxFuseIters
		}
		mem := m.mem
		s, d := ds.r[vS], ds.r[vD]
		j = safeIters(j, s, 3, 0, 2, len(mem))
		j = safeIters(j, d, 1, 0, 0, len(mem))
		if j == 0 {
			return 0, p
		}
		ch, hi, lo := ds.f[wCh], ds.f[wHi], ds.f[wLo]
		one, zero := ds.f[wOne], ds.f[wZero]
		var t0, t1, t2, t3, t4, t5, road float64
		var a0, a1 int64
		for it := uint64(0); it < j; it++ {
			t0 = mem[s]
			t1 = mem[s+1]
			t2 = mem[s+2]
			t3 = math.Abs(t0 - t1)
			a0 = boolToInt(t3 < ch)
			t4 = math.Abs(t1 - t2)
			a1 = boolToInt(t4 < ch)
			a0 &= a1
			t5 = t0 + t1
			t5 = t5 + t2
			a1 = boolToInt(t5 < hi)
			a0 &= a1
			a1 = boolToInt(lo <= t5)
			a0 &= a1
			if a0 != 0 {
				road = one
			} else {
				road = zero
			}
			mem[d] = road
			s += 3
			d++
			c++
		}
		ds.f[w0], ds.f[w1], ds.f[w2], ds.f[w3], ds.f[w4], ds.f[w5], ds.f[wR] = t0, t1, t2, t3, t4, t5, road
		ds.r[vT0], ds.r[vT1] = a0, a1
		ds.r[vS], ds.r[vD], ds.r[vC] = s, d, c
		if j == n && rem >= k*n+2 {
			ds.r[vF] = 0
			return k*n + 2, p + k
		}
		ds.r[vF] = 1
		return k * j, p
	}
	return fusedKernel{name: "roadness-loop", entry: p, fn: fn}, k, true
}

// --- conv-loop ------------------------------------------------------------
//
// The cross-kernel smoothing inner loop (agent.emitConv): a 5-point
// stencil at rBase+rCol with matcher-bound neighbor offsets, summed and
// scaled, stored at a fixed offset. 16 instructions per iteration.

func matchConvLoop(code []Instr, p int) (fusedKernel, int, bool) {
	const k = 16
	if p+k > len(code) {
		return fusedKernel{}, 0, false
	}
	done := int64(p + k)
	i := code[p : p+k : p+k]
	if i[0].Op != ICMPLT || i[1].Op != BEQZ || i[1].A != i[0].Dst || i[1].IImm != done {
		return fusedKernel{}, 0, false
	}
	rF, rCl, rC1 := i[0].Dst, i[0].A, i[0].B
	if i[2].Op != IADD || i[2].B != rCl {
		return fusedKernel{}, 0, false
	}
	rA, rB := i[2].Dst, i[2].A
	var off [5]int64
	var f [5]uint16
	for l := 0; l < 5; l++ {
		in := i[3+l]
		if in.Op != LD || in.A != rA || !smallOff(in.IImm) {
			return fusedKernel{}, 0, false
		}
		f[l], off[l] = in.Dst, in.IImm
	}
	if off[0] != 0 {
		return fusedKernel{}, 0, false
	}
	for l := 0; l < 4; l++ {
		in := i[8+l]
		if in.Op != FADD || in.Dst != f[0] || in.A != f[0] || in.B != f[1+l] {
			return fusedKernel{}, 0, false
		}
	}
	if i[12].Op != FMUL || i[12].Dst != f[0] || i[12].A != f[0] {
		return fusedKernel{}, 0, false
	}
	fK := i[12].B
	if i[13].Op != ST || i[13].A != rA || i[13].B != f[0] || !smallOff(i[13].IImm) {
		return fusedKernel{}, 0, false
	}
	stOff := i[13].IImm
	if i[14].Op != IADDI || i[14].Dst != rCl || i[14].A != rCl || i[14].IImm != 1 ||
		i[15].Op != JMP || i[15].IImm != int64(p) {
		return fusedKernel{}, 0, false
	}
	if !distinctRegs(rF, rCl, rC1, rA, rB) ||
		!distinctRegs(f[0], f[1], f[2], f[3], f[4], fK) {
		return fusedKernel{}, 0, false
	}
	lo, hi := stOff, stOff
	for _, o := range off {
		if o < lo {
			lo = o
		}
		if o > hi {
			hi = o
		}
	}
	vF, vCl, vC1, vA, vB := int(rF), int(rCl), int(rC1), int(rA), int(rB)
	w0, w1, w2, w3, w4, wK := int(f[0]), int(f[1]), int(f[2]), int(f[3]), int(f[4]), int(fK)
	o1, o2, o3, o4 := off[1], off[2], off[3], off[4]
	fn := func(m *Machine, ds *deviceState, rem uint64) (uint64, int) {
		c, e := ds.r[vCl], ds.r[vC1]
		n := ltTripCount(c, e)
		if n == 0 {
			if rem < 2 {
				return 0, p
			}
			ds.r[vF] = 0
			return 2, p + k
		}
		j := n
		if b := rem / k; b < j {
			j = b
		}
		if j > maxFuseIters {
			j = maxFuseIters
		}
		mem := m.mem
		base := ds.r[vB]
		if base >= maxFuseBase || base <= -maxFuseBase {
			return 0, p
		}
		j = safeIters(j, base+c, 1, lo, hi, len(mem))
		if j == 0 {
			return 0, p
		}
		sc := ds.f[wK]
		var t0, t1, t2, t3, t4 float64
		a := base + c
		for it := uint64(0); it < j; it++ {
			a = base + c
			t0 = mem[a]
			t1 = mem[a+o1]
			t2 = mem[a+o2]
			t3 = mem[a+o3]
			t4 = mem[a+o4]
			t0 = t0 + t1
			t0 = t0 + t2
			t0 = t0 + t3
			t0 = t0 + t4
			t0 = t0 * sc
			mem[a+stOff] = t0
			c++
		}
		ds.f[w0], ds.f[w1], ds.f[w2], ds.f[w3], ds.f[w4] = t0, t1, t2, t3, t4
		ds.r[vA], ds.r[vCl] = a, c
		if j == n && rem >= k*n+2 {
			ds.r[vF] = 0
			return k*n + 2, p + k
		}
		ds.r[vF] = 1
		return k * j, p
	}
	return fusedKernel{name: "conv-loop", entry: p, fn: fn}, k, true
}

// --- center-scan-loop -----------------------------------------------------
//
// The corridor scan inner loop (agent.emitCenterScan): a LUT lateral
// lookup, corridor and threshold tests, FSEL/FMIN reduction into the
// running minimum distance. 15 instructions per iteration.

func matchCenterScanLoop(code []Instr, p int) (fusedKernel, int, bool) {
	const k = 15
	if p+k > len(code) {
		return fusedKernel{}, 0, false
	}
	done := int64(p + k)
	i := code[p : p+k : p+k]
	if i[0].Op != ICMPLT || i[1].Op != BEQZ || i[1].A != i[0].Dst || i[1].IImm != done {
		return fusedKernel{}, 0, false
	}
	rF, rCl, rC1 := i[0].Dst, i[0].A, i[0].B
	if i[2].Op != IADD || i[2].B != rCl {
		return fusedKernel{}, 0, false
	}
	rA, rLut := i[2].Dst, i[2].A
	if i[3].Op != LD || i[3].A != rA || i[3].IImm != 0 {
		return fusedKernel{}, 0, false
	}
	fCl := i[3].Dst
	if i[4].Op != FMUL || i[4].A != fCl {
		return fusedKernel{}, 0, false
	}
	fLat, fRowD := i[4].Dst, i[4].B
	if i[5].Op != FABS || i[5].Dst != fLat || i[5].A != fLat {
		return fusedKernel{}, 0, false
	}
	if i[6].Op != FCMPLT || i[6].A != fLat {
		return fusedKernel{}, 0, false
	}
	rT0, fCorr := i[6].Dst, i[6].B
	if i[7].Op != IADD || i[7].Dst != rA || i[7].B != rCl {
		return fusedKernel{}, 0, false
	}
	rB := i[7].A
	if i[8].Op != LD || i[8].A != rA || i[8].IImm != 0 {
		return fusedKernel{}, 0, false
	}
	fX := i[8].Dst
	if i[9].Op != FCMPLT || i[9].B != fX {
		return fusedKernel{}, 0, false
	}
	rT1, fThr := i[9].Dst, i[9].A
	if i[10].Op != IAND || i[10].Dst != rT0 || i[10].A != rT0 || i[10].B != rT1 {
		return fusedKernel{}, 0, false
	}
	if i[11].Op != FSEL || i[11].A != fRowD || i[11].C != rT0 {
		return fusedKernel{}, 0, false
	}
	fM0, fBig := i[11].Dst, i[11].B
	if i[12].Op != FMIN || i[12].B != fM0 {
		return fusedKernel{}, 0, false
	}
	fMin := i[12].Dst
	if i[12].A != fMin {
		return fusedKernel{}, 0, false
	}
	if i[13].Op != IADDI || i[13].Dst != rCl || i[13].A != rCl || i[13].IImm != 1 ||
		i[14].Op != JMP || i[14].IImm != int64(p) {
		return fusedKernel{}, 0, false
	}
	if !distinctRegs(rF, rCl, rC1, rA, rLut, rB, rT0, rT1) ||
		!distinctRegs(fCl, fLat, fX, fM0, fMin, fRowD, fCorr, fThr, fBig) {
		return fusedKernel{}, 0, false
	}
	vF, vCl, vC1, vA, vLut, vB, vT0, vT1 := int(rF), int(rCl), int(rC1), int(rA), int(rLut), int(rB), int(rT0), int(rT1)
	wCl, wLat, wX, wM0, wMin := int(fCl), int(fLat), int(fX), int(fM0), int(fMin)
	wRowD, wCorr, wThr, wBig := int(fRowD), int(fCorr), int(fThr), int(fBig)
	fn := func(m *Machine, ds *deviceState, rem uint64) (uint64, int) {
		c, e := ds.r[vCl], ds.r[vC1]
		n := ltTripCount(c, e)
		if n == 0 {
			if rem < 2 {
				return 0, p
			}
			ds.r[vF] = 0
			return 2, p + k
		}
		j := n
		if b := rem / k; b < j {
			j = b
		}
		if j > maxFuseIters {
			j = maxFuseIters
		}
		mem := m.mem
		lut, gb := ds.r[vLut], ds.r[vB]
		if lut >= maxFuseBase || lut <= -maxFuseBase || gb >= maxFuseBase || gb <= -maxFuseBase {
			return 0, p
		}
		j = safeIters(j, lut+c, 1, 0, 0, len(mem))
		j = safeIters(j, gb+c, 1, 0, 0, len(mem))
		if j == 0 {
			return 0, p
		}
		rowD, corr, thr, big := ds.f[wRowD], ds.f[wCorr], ds.f[wThr], ds.f[wBig]
		minD := ds.f[wMin]
		var colLat, lat, x, m0 float64
		var a0, a1 int64
		a := lut + c
		for it := uint64(0); it < j; it++ {
			colLat = mem[lut+c]
			lat = math.Abs(colLat * rowD)
			a0 = boolToInt(lat < corr)
			a = gb + c
			x = mem[a]
			a1 = boolToInt(thr < x)
			a0 &= a1
			if a0 != 0 {
				m0 = rowD
			} else {
				m0 = big
			}
			minD = math.Min(minD, m0)
			c++
		}
		ds.f[wCl], ds.f[wLat], ds.f[wX], ds.f[wM0], ds.f[wMin] = colLat, lat, x, m0, minD
		ds.r[vT0], ds.r[vT1] = a0, a1
		ds.r[vA], ds.r[vCl] = a, c
		if j == n && rem >= k*n+2 {
			ds.r[vF] = 0
			return k*n + 2, p + k
		}
		ds.r[vF] = 1
		return k * j, p
	}
	return fusedKernel{name: "center-scan-loop", entry: p, fn: fn}, k, true
}

// --- side-scan-loop -------------------------------------------------------
//
// The near-field side-camera scan inner loop (agent.emitSideScan):
// threshold test + FSEL/FMIN reduction. 9 instructions per iteration.

func matchSideScanLoop(code []Instr, p int) (fusedKernel, int, bool) {
	const k = 9
	if p+k > len(code) {
		return fusedKernel{}, 0, false
	}
	done := int64(p + k)
	i := code[p : p+k : p+k]
	if i[0].Op != ICMPLT || i[1].Op != BEQZ || i[1].A != i[0].Dst || i[1].IImm != done {
		return fusedKernel{}, 0, false
	}
	rF, rCl, rC1 := i[0].Dst, i[0].A, i[0].B
	if i[2].Op != IADD || i[2].B != rCl {
		return fusedKernel{}, 0, false
	}
	rA, rB := i[2].Dst, i[2].A
	if i[3].Op != LD || i[3].A != rA || i[3].IImm != 0 {
		return fusedKernel{}, 0, false
	}
	fX := i[3].Dst
	if i[4].Op != FCMPLT || i[4].B != fX {
		return fusedKernel{}, 0, false
	}
	rT0, fThr := i[4].Dst, i[4].A
	if i[5].Op != FSEL || i[5].C != rT0 {
		return fusedKernel{}, 0, false
	}
	fM0, fRowD, fBig := i[5].Dst, i[5].A, i[5].B
	if i[6].Op != FMIN || i[6].B != fM0 {
		return fusedKernel{}, 0, false
	}
	fS := i[6].Dst
	if i[6].A != fS {
		return fusedKernel{}, 0, false
	}
	if i[7].Op != IADDI || i[7].Dst != rCl || i[7].A != rCl || i[7].IImm != 1 ||
		i[8].Op != JMP || i[8].IImm != int64(p) {
		return fusedKernel{}, 0, false
	}
	if !distinctRegs(rF, rCl, rC1, rA, rB, rT0) ||
		!distinctRegs(fX, fM0, fS, fThr, fRowD, fBig) {
		return fusedKernel{}, 0, false
	}
	vF, vCl, vC1, vA, vB, vT0 := int(rF), int(rCl), int(rC1), int(rA), int(rB), int(rT0)
	wX, wM0, wS, wThr, wRowD, wBig := int(fX), int(fM0), int(fS), int(fThr), int(fRowD), int(fBig)
	fn := func(m *Machine, ds *deviceState, rem uint64) (uint64, int) {
		c, e := ds.r[vCl], ds.r[vC1]
		n := ltTripCount(c, e)
		if n == 0 {
			if rem < 2 {
				return 0, p
			}
			ds.r[vF] = 0
			return 2, p + k
		}
		j := n
		if b := rem / k; b < j {
			j = b
		}
		if j > maxFuseIters {
			j = maxFuseIters
		}
		mem := m.mem
		gb := ds.r[vB]
		if gb >= maxFuseBase || gb <= -maxFuseBase {
			return 0, p
		}
		j = safeIters(j, gb+c, 1, 0, 0, len(mem))
		if j == 0 {
			return 0, p
		}
		thr, rowD, big := ds.f[wThr], ds.f[wRowD], ds.f[wBig]
		sd := ds.f[wS]
		var x, m0 float64
		var a0 int64
		a := gb + c
		for it := uint64(0); it < j; it++ {
			a = gb + c
			x = mem[a]
			a0 = boolToInt(thr < x)
			if a0 != 0 {
				m0 = rowD
			} else {
				m0 = big
			}
			sd = math.Min(sd, m0)
			c++
		}
		ds.f[wX], ds.f[wM0], ds.f[wS] = x, m0, sd
		ds.r[vT0] = a0
		ds.r[vA], ds.r[vCl] = a, c
		if j == n && rem >= k*n+2 {
			ds.r[vF] = 0
			return k*n + 2, p + k
		}
		ds.r[vF] = 1
		return k * j, p
	}
	return fusedKernel{name: "side-scan-loop", entry: p, fn: fn}, k, true
}

// --- lane-edge-loop -------------------------------------------------------
//
// The right-road-edge search (agent.emitLaneEstimate): a decrementing
// scan with a found-flag latch; first road pixel's LUT lateral is kept
// via FSEL. 14 instructions per iteration. The latch compares
// "r[end] < r[cnt]" with the counter on the right and steps by −1.

func matchLaneEdgeLoop(code []Instr, p int) (fusedKernel, int, bool) {
	const k = 14
	if p+k > len(code) {
		return fusedKernel{}, 0, false
	}
	done := int64(p + k)
	i := code[p : p+k : p+k]
	if i[0].Op != ICMPLT || i[1].Op != BEQZ || i[1].A != i[0].Dst || i[1].IImm != done {
		return fusedKernel{}, 0, false
	}
	rF, rE, rC := i[0].Dst, i[0].A, i[0].B
	if i[2].Op != IADD || i[2].B != rC {
		return fusedKernel{}, 0, false
	}
	rA, rS := i[2].Dst, i[2].A
	if i[3].Op != LD || i[3].A != rA || i[3].IImm != 0 {
		return fusedKernel{}, 0, false
	}
	fRd := i[3].Dst
	if i[4].Op != FCMPLT || i[4].B != fRd {
		return fusedKernel{}, 0, false
	}
	rT0, fCut := i[4].Dst, i[4].A
	if i[5].Op != IMOVI || i[5].IImm != 0 {
		return fusedKernel{}, 0, false
	}
	rT1 := i[5].Dst
	if i[6].Op != ICMPEQ || i[6].Dst != rT1 || i[6].B != rT1 {
		return fusedKernel{}, 0, false
	}
	rM := i[6].A
	if i[7].Op != IAND || i[7].Dst != rT1 || i[7].A != rT0 || i[7].B != rT1 {
		return fusedKernel{}, 0, false
	}
	if i[8].Op != IADD || i[8].Dst != rA || i[8].B != rC {
		return fusedKernel{}, 0, false
	}
	rL := i[8].A
	if i[9].Op != LD || i[9].A != rA || i[9].IImm != 0 {
		return fusedKernel{}, 0, false
	}
	fCl := i[9].Dst
	if i[10].Op != FSEL || i[10].A != fCl || i[10].C != rT1 {
		return fusedKernel{}, 0, false
	}
	fSum := i[10].Dst
	if i[10].B != fSum {
		return fusedKernel{}, 0, false
	}
	if i[11].Op != IOR || i[11].Dst != rM || i[11].A != rM || i[11].B != rT0 {
		return fusedKernel{}, 0, false
	}
	if i[12].Op != IADDI || i[12].Dst != rC || i[12].A != rC || i[12].IImm != -1 ||
		i[13].Op != JMP || i[13].IImm != int64(p) {
		return fusedKernel{}, 0, false
	}
	if !distinctRegs(rF, rE, rC, rA, rS, rT0, rT1, rM, rL) ||
		!distinctRegs(fRd, fCl, fSum, fCut) {
		return fusedKernel{}, 0, false
	}
	vF, vE, vC, vA, vS, vT0, vT1, vM, vL := int(rF), int(rE), int(rC), int(rA), int(rS), int(rT0), int(rT1), int(rM), int(rL)
	wRd, wCl, wSum, wCut := int(fRd), int(fCl), int(fSum), int(fCut)
	fn := func(m *Machine, ds *deviceState, rem uint64) (uint64, int) {
		c, e := ds.r[vC], ds.r[vE]
		var n uint64
		if e < c {
			n = uint64(c) - uint64(e)
		}
		if n == 0 {
			if rem < 2 {
				return 0, p
			}
			ds.r[vF] = 0
			return 2, p + k
		}
		j := n
		if b := rem / k; b < j {
			j = b
		}
		if j > maxFuseIters {
			j = maxFuseIters
		}
		mem := m.mem
		s, lut := ds.r[vS], ds.r[vL]
		if s >= maxFuseBase || s <= -maxFuseBase || lut >= maxFuseBase || lut <= -maxFuseBase {
			return 0, p
		}
		j = safeIters(j, s+c, -1, 0, 0, len(mem))
		j = safeIters(j, lut+c, -1, 0, 0, len(mem))
		if j == 0 {
			return 0, p
		}
		cut := ds.f[wCut]
		rm := ds.r[vM]
		sum := ds.f[wSum]
		var rd, cl float64
		var a0, a1 int64
		a := s + c
		for it := uint64(0); it < j; it++ {
			rd = mem[s+c]
			a0 = boolToInt(cut < rd)
			a1 = boolToInt(rm == 0)
			a1 = a0 & a1
			a = lut + c
			cl = mem[a]
			if a1 != 0 {
				sum = cl
			}
			rm |= a0
			c--
		}
		ds.f[wRd], ds.f[wCl], ds.f[wSum] = rd, cl, sum
		ds.r[vT0], ds.r[vT1], ds.r[vM] = a0, a1, rm
		ds.r[vA], ds.r[vC] = a, c
		if j == n && rem >= k*n+2 {
			ds.r[vF] = 0
			return k*n + 2, p + k
		}
		ds.r[vF] = 1
		return k * j, p
	}
	return fusedKernel{name: "lane-edge-loop", entry: p, fn: fn}, k, true
}

// --- checksum-loop --------------------------------------------------------
//
// The marshal-out checksum fold (agent.BuildCPUOut): an ICMPEQ/BNEZ
// latch (exit on equality, so the loop-exit flag is 1) around
// acc = rotl(acc ^ int(mem[src+cnt])). 11 instructions per iteration.

func matchChecksumLoop(code []Instr, p int) (fusedKernel, int, bool) {
	const k = 11
	if p+k > len(code) {
		return fusedKernel{}, 0, false
	}
	done := int64(p + k)
	i := code[p : p+k : p+k]
	if i[0].Op != ICMPEQ || i[1].Op != BNEZ || i[1].A != i[0].Dst || i[1].IImm != done {
		return fusedKernel{}, 0, false
	}
	rF, rC, rE := i[0].Dst, i[0].A, i[0].B
	if i[2].Op != IADD || i[2].B != rC {
		return fusedKernel{}, 0, false
	}
	rA, rS := i[2].Dst, i[2].A
	if i[3].Op != LD || i[3].A != rA || i[3].IImm != 0 {
		return fusedKernel{}, 0, false
	}
	f0 := i[3].Dst
	if i[4].Op != FTOI || i[4].A != f0 {
		return fusedKernel{}, 0, false
	}
	rT0 := i[4].Dst
	if i[5].Op != IXOR || i[5].B != rT0 {
		return fusedKernel{}, 0, false
	}
	rAc := i[5].Dst
	if i[5].A != rAc {
		return fusedKernel{}, 0, false
	}
	if i[6].Op != ISHL || i[6].Dst != rT0 || i[6].A != rAc {
		return fusedKernel{}, 0, false
	}
	rSa := i[6].B
	if i[7].Op != ISHR || i[7].A != rAc {
		return fusedKernel{}, 0, false
	}
	rT1, rSb := i[7].Dst, i[7].B
	if i[8].Op != IOR || i[8].Dst != rAc || i[8].A != rT0 || i[8].B != rT1 {
		return fusedKernel{}, 0, false
	}
	if i[9].Op != IADDI || i[9].Dst != rC || i[9].A != rC || i[9].IImm != 1 ||
		i[10].Op != JMP || i[10].IImm != int64(p) {
		return fusedKernel{}, 0, false
	}
	if !distinctRegs(rF, rC, rE, rA, rS, rT0, rT1, rAc, rSa, rSb) {
		return fusedKernel{}, 0, false
	}
	vF, vC, vE, vA, vS := int(rF), int(rC), int(rE), int(rA), int(rS)
	vT0, vT1, vAc, vSa, vSb := int(rT0), int(rT1), int(rAc), int(rSa), int(rSb)
	fn := func(m *Machine, ds *deviceState, rem uint64) (uint64, int) {
		c, e := ds.r[vC], ds.r[vE]
		// Exit on equality: the count is the mod-2^64 distance, which is
		// exact even when the counter must wrap to reach e.
		n := uint64(e) - uint64(c)
		if n == 0 {
			if rem < 2 {
				return 0, p
			}
			ds.r[vF] = 1
			return 2, p + k
		}
		j := n
		if b := rem / k; b < j {
			j = b
		}
		if j > maxFuseIters {
			j = maxFuseIters
		}
		mem := m.mem
		s := ds.r[vS]
		if s >= maxFuseBase || s <= -maxFuseBase {
			return 0, p
		}
		j = safeIters(j, s+c, 1, 0, 0, len(mem))
		if j == 0 {
			return 0, p
		}
		sa := uint64(ds.r[vSa]) & 63
		sb := uint64(ds.r[vSb]) & 63
		acc := ds.r[vAc]
		var x float64
		var a0, a1 int64
		a := s + c
		for it := uint64(0); it < j; it++ {
			a = s + c
			x = mem[a]
			a0 = saturateToInt(x)
			acc ^= a0
			a0 = acc << sa
			a1 = acc >> sb
			acc = a0 | a1
			c++
		}
		ds.f[f0] = x
		ds.r[vT0], ds.r[vT1], ds.r[vAc] = a0, a1, acc
		ds.r[vA], ds.r[vC] = a, c
		if j == n && rem >= k*n+2 {
			ds.r[vF] = 1
			return k*n + 2, p + k
		}
		ds.r[vF] = 0
		return k * j, p
	}
	return fusedKernel{name: "checksum-loop", entry: p, fn: fn}, k, true
}

// --- copy-loop ------------------------------------------------------------
//
// The marshal-in block copy (agent.BuildCPUIn): a bottom-tested
// LD/ST/IADDI/ICMPLT/BNEZ loop, entered at the LD, that always executes
// at least once. 5 instructions per iteration, with the latch inside
// the iteration (no +2 exit cost).

func matchCopyLoop(code []Instr, p int) (fusedKernel, int, bool) {
	const k = 5
	if p+k > len(code) {
		return fusedKernel{}, 0, false
	}
	i := code[p : p+k : p+k]
	if i[0].Op != LD || !smallOff(i[0].IImm) {
		return fusedKernel{}, 0, false
	}
	fD, rS, ldOff := i[0].Dst, i[0].A, i[0].IImm
	if i[1].Op != ST || i[1].A != rS || i[1].B != fD || !smallOff(i[1].IImm) {
		return fusedKernel{}, 0, false
	}
	stOff := i[1].IImm
	if i[2].Op != IADDI || i[2].Dst != rS || i[2].A != rS || i[2].IImm <= 0 || !smallOff(i[2].IImm) {
		return fusedKernel{}, 0, false
	}
	st := i[2].IImm
	if i[3].Op != ICMPLT || i[3].A != rS {
		return fusedKernel{}, 0, false
	}
	rF, rE := i[3].Dst, i[3].B
	if i[4].Op != BNEZ || i[4].A != rF || i[4].IImm != int64(p) {
		return fusedKernel{}, 0, false
	}
	if !distinctRegs(rS, rF, rE) {
		return fusedKernel{}, 0, false
	}
	vD, vS, vF, vE := int(fD), int(rS), int(rF), int(rE)
	lo, hi := ldOff, stOff
	if hi < lo {
		lo, hi = hi, lo
	}
	fn := func(m *Machine, ds *deviceState, rem uint64) (uint64, int) {
		s, e := ds.r[vS], ds.r[vE]
		if s >= maxFuseBase || s <= -maxFuseBase || e >= maxFuseBase || e <= -maxFuseBase {
			return 0, p
		}
		// Bottom-tested: the body runs once, then repeats while the
		// stepped counter is still below e.
		var n uint64
		if d := e - s; d > st {
			n = uint64((d + st - 1) / st)
		} else {
			n = 1
		}
		j := n
		if b := rem / k; b < j {
			j = b
		}
		if j > maxFuseIters {
			j = maxFuseIters
		}
		mem := m.mem
		j = safeIters(j, s, st, lo, hi, len(mem))
		if j == 0 {
			return 0, p
		}
		var v float64
		for it := uint64(0); it < j; it++ {
			v = mem[s+ldOff]
			mem[s+stOff] = v
			s += st
		}
		flag := boolToInt(s < e)
		ds.f[vD] = v
		ds.r[vS], ds.r[vF] = s, flag
		if flag != 0 {
			return k * j, p
		}
		return k * j, p + k
	}
	return fusedKernel{name: "copy-loop", entry: p, fn: fn}, k, true
}

// --- mov-run --------------------------------------------------------------
//
// A straight-line run of ≥ 4 consecutive FMOVI/IMOVI/FMOV instructions
// (constant prologues before the loops). Executed in order — FMOV may
// read a register an earlier mov in the run wrote.

const minMovRun = 4

type movOp struct {
	op   Opcode
	dst  uint16
	src  uint16
	imm  float64
	iimm int64
}

func matchMovRun(code []Instr, p int) (fusedKernel, int, bool) {
	q := p
	for q < len(code) {
		op := code[q].Op
		if op != FMOVI && op != IMOVI && op != FMOV {
			break
		}
		q++
	}
	n := q - p
	if n < minMovRun {
		return fusedKernel{}, 0, false
	}
	ops := make([]movOp, n)
	for l := 0; l < n; l++ {
		in := &code[p+l]
		ops[l] = movOp{op: in.Op, dst: in.Dst, src: in.A, imm: in.Imm, iimm: in.IImm}
	}
	un := uint64(n)
	fn := func(m *Machine, ds *deviceState, rem uint64) (uint64, int) {
		if rem < un {
			return 0, p
		}
		for l := range ops {
			o := &ops[l]
			switch o.op {
			case FMOVI:
				ds.f[o.dst] = o.imm
			case IMOVI:
				ds.r[o.dst] = o.iimm
			default: // FMOV
				ds.f[o.dst] = ds.f[o.src]
			}
		}
		return un, q
	}
	return fusedKernel{name: "mov-run", entry: p, fn: fn}, n, true
}
