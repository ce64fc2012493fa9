package vm

// RegFile is the architectural state of one device: its float and int
// register files and its cumulative dynamic instruction counter. The
// counter is part of the snapshot because transient fault plans address
// instructions by cumulative dynamic index — a restored machine must keep
// counting from where the snapshot was taken, or forked injection runs
// would strike the wrong instruction.
type RegFile struct {
	F     [NumFloatRegs]float64
	R     [NumIntRegs]int64
	Count uint64
}

// MachineState is a deep snapshot of a Machine: data memory plus both
// devices' register files and counters. It shares nothing with the
// machine it was taken from, so one snapshot can restore any number of
// machines concurrently (the checkpoint/fork execution model).
type MachineState struct {
	Mem []float64
	Dev [2]RegFile
}

// Snapshot captures the machine's full architectural state. The fault
// hook is deliberately not part of the snapshot: hooks belong to the run
// configuration (injector, profiler), not to the machine state, and a
// forked run installs its own. The execution tier is likewise
// configuration (SetMaxTier), not architectural state: the tiers are
// bit-identical, so a snapshot carries no trace of which one ran.
func (m *Machine) Snapshot() *MachineState {
	return m.SnapshotInto(nil)
}

// SnapshotInto is Snapshot writing into dst, reusing dst's memory buffer
// when the sizes match (the checkpoint-pool path: a fork campaign takes
// the same snapshot shape tens of times per pass, and the memory copy is
// by far its largest allocation). A nil dst allocates a fresh state.
func (m *Machine) SnapshotInto(dst *MachineState) *MachineState {
	if dst == nil {
		dst = &MachineState{}
	}
	if len(dst.Mem) == len(m.mem) {
		copy(dst.Mem, m.mem)
	} else {
		dst.Mem = append(dst.Mem[:0], m.mem...)
	}
	for d := range m.dev {
		dst.Dev[d] = RegFile{F: m.dev[d].f, R: m.dev[d].r, Count: m.dev[d].count}
	}
	return dst
}

// Restore rewrites the machine's architectural state from a snapshot.
// The snapshot is copied, never aliased, so many goroutines may restore
// from the same MachineState concurrently. The restored counters say
// nothing about where the last writeback was, so LastWriteback becomes
// unknown.
func (m *Machine) Restore(st *MachineState) {
	if len(m.mem) == len(st.Mem) {
		copy(m.mem, st.Mem)
	} else {
		m.mem = append([]float64(nil), st.Mem...)
	}
	for d := range m.dev {
		m.dev[d].f = st.Dev[d].F
		m.dev[d].r = st.Dev[d].R
		m.dev[d].count = st.Dev[d].Count
		m.dev[d].wbKnown = false
	}
}
