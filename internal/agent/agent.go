package agent

import (
	"fmt"
	"sync"

	"diverseav/internal/physics"
	"diverseav/internal/sensor"
	"diverseav/internal/vm"
)

// Step budgets: generous multiples of the nominal dynamic instruction
// counts, so only genuinely runaway (fault-corrupted) loops trip the
// hang trap.
const (
	budgetCPUIn  = 160_000 // nominal ≈ 38.5k
	budgetGPU    = 400_000 // nominal ≈ 90k
	budgetCPUOut = 2_000   // nominal ≈ 130
)

// Input is one frame of sensor data delivered to an agent by the sensor
// data distributor.
type Input struct {
	Center, Left, Right sensor.Frame
	// Speed is the measured vehicle speed (IMU), m/s.
	Speed float64
	// Dt is the time since this agent last received a frame, seconds
	// (2× the sensor period in round-robin mode).
	Dt float64
	// SpeedLimit is the high-level route planner's current limit, m/s.
	SpeedLimit float64
	// FrameIndex is the global sensor frame counter.
	FrameIndex int
}

// Output is the agent's actuation decision and planner diagnostics.
type Output struct {
	Controls     physics.Controls
	ObstacleDist float64
	// Waypoints are the four local waypoints (distance, lateral) the
	// vision planner predicted, far to near.
	Waypoints [4][2]float64
}

// Agent is one software agent instance: a private compute fabric plus
// the compiled marshal and vision/control programs. DiverseAV
// instantiates two of these from the same programs (dynamic instances of
// the same underlying model); their private state lives in their own
// machines.
type Agent struct {
	Name   string
	mach   *vm.Machine
	cpuIn  *vm.Program
	cpuOut *vm.Program
	gpu    *vm.Program
}

// Compiled programs are immutable once built (the VM only reads Code),
// so every agent of every run shares one compiled copy instead of
// re-assembling ~2k instructions per agent per sim.Run. Agent state
// diversity lives entirely in each agent's private Machine memory.
var (
	compileOnce  sync.Once
	sharedCPUIn  *vm.Program
	sharedCPUOut *vm.Program
	sharedGPU    *vm.Program
)

func compiledPrograms() (cpuIn, cpuOut, gpu *vm.Program) {
	compileOnce.Do(func() {
		sharedCPUIn = BuildCPUIn()
		sharedCPUOut = BuildCPUOut()
		sharedGPU = BuildGPU()
	})
	return sharedCPUIn, sharedCPUOut, sharedGPU
}

// New creates an agent with freshly initialized fabric memory and LUTs.
func New(name string) *Agent {
	a := &Agent{
		Name: name,
		mach: vm.NewMachine(MemWords),
	}
	a.cpuIn, a.cpuOut, a.gpu = compiledPrograms()
	a.initMemory()
	return a
}

// initMemory writes the static LUTs and resets agent state.
func (a *Agent) initMemory() {
	mem := a.mach.Mem()
	rowC := RowDistCenterLUT()
	for i, d := range rowC {
		mem[AddrLutRowDistC+i] = d
	}
	rowS := RowDistSideLUT()
	for i, d := range rowS {
		mem[AddrLutRowDistS+i] = d
	}
	colLat := ColLatLUT()
	for i, l := range colLat {
		mem[AddrLutColLat+i] = l
	}
	mem[AddrState+offEMADist] = bigDist
	// Previous lane estimates default to "centered" so the first frames
	// steer straight.
	for i := 0; i < 4; i++ {
		mem[AddrState+offPrevWaypts+2*i+1] = 0
	}
}

// Machine exposes the agent's compute fabric (for fault injection and
// accounting).
func (a *Agent) Machine() *vm.Machine { return a.mach }

// Programs returns the agent's three compiled programs in pipeline
// order (CPU marshal-in, GPU vision/control, CPU marshal-out), with the
// devices and step budgets Step uses for them. Differential tests use
// this to drive the exact production program × device × budget matrix.
func (a *Agent) Programs() (progs [3]*vm.Program, devs [3]vm.Device, budgets [3]uint64) {
	progs = [3]*vm.Program{a.cpuIn, a.gpu, a.cpuOut}
	devs = [3]vm.Device{vm.CPU, vm.GPU, vm.CPU}
	budgets = [3]uint64{budgetCPUIn, budgetGPU, budgetCPUOut}
	return
}

// Snapshot captures the agent's full mutable state. An agent's state
// lives entirely in its machine (memory, registers, instruction
// counters); the compiled programs are immutable and shared.
func (a *Agent) Snapshot() *vm.MachineState { return a.mach.Snapshot() }

// SnapshotInto is Snapshot reusing dst's buffers (nil dst allocates);
// see vm.Machine.SnapshotInto.
func (a *Agent) SnapshotInto(dst *vm.MachineState) *vm.MachineState { return a.mach.SnapshotInto(dst) }

// Restore rewinds the agent to a snapshot taken from an agent of the
// same configuration (snapshots copy, so many forks may restore from
// one snapshot concurrently).
func (a *Agent) Restore(st *vm.MachineState) { a.mach.Restore(st) }

// DigestFNV folds the agent's full mutable state into a running FNV-64a
// hash; see vm.Machine.DigestFNV. Like Snapshot, this is entirely the
// machine's state — the fusion pipeline's persistent memory (PID
// integrator, EMA obstacle distance, previous waypoints) lives in fabric
// memory and is covered by the machine digest.
func (a *Agent) DigestFNV(h uint64) uint64 { return a.mach.DigestFNV(h) }

// StateEquals reports bit-exact equality of the agent's live state and a
// snapshot; see vm.Machine.StateEquals.
func (a *Agent) StateEquals(st *vm.MachineState) bool { return a.mach.StateEquals(st) }

// marshalFrame copies the pixels of sample grid g of one camera frame
// into the staging buffer, row by row.
func marshalFrame(mem []float64, base int64, f sensor.Frame, g sensor.Grid) {
	idx := base
	for v := 0; v < sensor.FrameH; v += g.Row {
		row := v * sensor.FrameW * 3
		for u := 0; u < sensor.FrameW; u += g.Col {
			p := row + u*3
			mem[idx] = float64(f[p])
			mem[idx+1] = float64(f[p+1])
			mem[idx+2] = float64(f[p+2])
			idx += 3
		}
	}
}

// marshalInput writes the host-side inputs of one frame: the scalars
// and the three cameras' sample grids.
func marshalInput(mem []float64, in *Input) {
	mem[AddrScalarIn+0] = in.Speed
	mem[AddrScalarIn+1] = in.Dt
	mem[AddrScalarIn+2] = in.SpeedLimit
	mem[AddrScalarIn+3] = float64(in.FrameIndex)
	marshalFrame(mem, AddrStageCenter, in.Center, CenterGrid)
	marshalFrame(mem, AddrStageLeft, in.Left, SideGrid)
	marshalFrame(mem, AddrStageRight, in.Right, SideGrid)
}

// Step delivers one sensor frame to the agent and runs its full pipeline
// (CPU marshal-in → GPU vision/control → CPU marshal-out). A returned
// error is a DUE: the platform (OS / scenario manager analogue) detected
// a crash or hang of the agent process.
func (a *Agent) Step(in *Input) (Output, error) {
	mem := a.mach.Mem()
	marshalInput(mem, in)
	if err := a.mach.Run(vm.CPU, a.cpuIn, budgetCPUIn); err != nil {
		return Output{}, fmt.Errorf("agent %s: %w", a.Name, err)
	}
	if err := a.mach.Run(vm.GPU, a.gpu, budgetGPU); err != nil {
		return Output{}, fmt.Errorf("agent %s: %w", a.Name, err)
	}
	if err := a.mach.Run(vm.CPU, a.cpuOut, budgetCPUOut); err != nil {
		return Output{}, fmt.Errorf("agent %s: %w", a.Name, err)
	}

	var out Output
	out.Controls = physics.Controls{
		Throttle: mem[AddrMailbox+0],
		Brake:    mem[AddrMailbox+1],
		Steer:    mem[AddrMailbox+2],
	}.Clamp()
	out.ObstacleDist = mem[AddrMailbox+3]
	for i := 0; i < 4; i++ {
		out.Waypoints[i][0] = mem[AddrMailbox+4+2*i]
		out.Waypoints[i][1] = mem[AddrMailbox+4+2*i+1]
	}
	return out, nil
}

// MemoryBytes returns the agent's fabric memory footprint in bytes (for
// the Table II resource accounting).
func (a *Agent) MemoryBytes() int { return MemWords * 8 }
