package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"
)

// Cache statuses a lab span can carry: the job ran (computed), was
// deduplicated against an earlier identical spec in this process
// (memory), or was loaded from the on-disk artifact store (disk).
const (
	CacheComputed = "computed"
	CacheMemory   = "memory"
	CacheDisk     = "disk"
)

// Record types in the ledger.
const (
	RecordMeta        = "meta"
	RecordSpan        = "span"
	RecordMetrics     = "metrics"
	RecordPropagation = "propagation"
)

// SchemaVersion is the ledger schema this package writes. Version 2
// added the per-run span fields (simulated_steps, exit_reason) for
// divergence-aware campaign execution; version 3 added the node field
// on meta and span records so a grid coordinator can merge its workers'
// ledgers into one stream with per-process identity; version 4 added
// the surface field on run spans, naming the fault surface the run
// injected through; version 5 added the propagation record, the
// per-run fault-propagation attribution the tracer emits. Readers
// accept every version up to this one: older ledgers simply lack the
// newer optional fields and record types.
const SchemaVersion = 5

// Fault-surface names a run span may carry (Span.Surface). These are
// the ledger vocabulary for internal/fi's pluggable surfaces — declared
// here, like the exit reasons, because obs sits below fi in the import
// order and the validator needs the closed set.
const (
	// SurfaceInstr is the instruction-level XOR injector (the paper's
	// NVBitFI/PinFI analogue, fi/instr).
	SurfaceInstr = "instr"
	// SurfaceSensor is AVFI-style sensor frame corruption between the
	// cameras and the agents (fi/sensorfault).
	SurfaceSensor = "sensorfault"
	// SurfaceHallucinate is perception-interface perturbation of the
	// vision planner's outputs (fi/hallucinate).
	SurfaceHallucinate = "hallucinate"
)

// Subsystem names a propagation record can attribute divergence to —
// the closed-loop state partitions the runner's checkpoint digest
// covers. Declared here (like the surfaces) because obs sits below sim
// in the import order and the validator needs the closed set.
const (
	// SubsystemEnv is the world state: ego and NPC kinematics, script
	// phases, the scenario RNG.
	SubsystemEnv = "env"
	// SubsystemIMU is the inertial sensor's noise stream.
	SubsystemIMU = "imu"
	// SubsystemJitter is the duplicate-mode measurement-jitter stream.
	SubsystemJitter = "jitter"
	// SubsystemAgent0/SubsystemAgent1 are the agent compute fabrics:
	// VM memory, register files, instruction counters.
	SubsystemAgent0 = "agent0"
	SubsystemAgent1 = "agent1"
	// SubsystemCtrl is the control/fusion latch set: applied actuation,
	// the driving agent, frame-delivery latches, the route cursor.
	SubsystemCtrl = "ctrl"
	// SubsystemTrace is the trace write cursor.
	SubsystemTrace = "trace"
)

// Propagation boundaries: the deepest layer a fault's corruption was
// observed to cross before the run ended (or reconverged). A fault
// masked at the "state" boundary corrupted internal subsystem state but
// never reached the applied controls; one masked at "control" perturbed
// actuation without moving the vehicle off the golden trajectory;
// "trajectory" means the recorded trajectory itself diverged.
const (
	BoundaryState      = "state"
	BoundaryControl    = "control"
	BoundaryTrajectory = "trajectory"
)

// Propagation verdicts: the campaign's outcome taxonomy for a traced
// run, stamped by the campaign executor once golden baselines exist.
const (
	VerdictSDC    = "sdc"    // silent data corruption: a safety hazard
	VerdictDUE    = "due"    // detected unrecoverable error: hang/crash
	VerdictMasked = "masked" // fault acted but the outcome stayed benign
)

// Exit reasons a divergence-aware run span can carry. An empty reason
// means the run simulated to its natural end.
const (
	// ExitSplice: the forked run reconverged bit-exactly with the golden
	// run and grafted its suffix instead of simulating it.
	ExitSplice = "splice"
	// ExitEarly: the run stopped once its trajectory divergence crossed
	// a configured threshold. No current writer emits it; Validate keeps
	// accepting it so ledgers written while the option existed still
	// validate.
	ExitEarly = "early-exit"
)

// Meta describes one tool invocation: what ran, where, and on what
// hardware — enough to compare ledgers (and bench trajectories) across
// machines.
type Meta struct {
	Tool       string   `json:"tool"`
	Args       []string `json:"args,omitempty"`
	Start      string   `json:"start"` // RFC 3339
	GoVersion  string   `json:"go_version"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"num_cpu"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	GitSHA     string   `json:"git_sha,omitempty"`
	// Schema is the ledger schema version the writer emitted
	// (SchemaVersion). Zero in ledgers written before versioning; the
	// decoder accepts both.
	Schema int `json:"schema,omitempty"`
	// Node identifies the process that wrote this record in a merged
	// multi-process ledger (schema >= 3): empty for the coordinator (or a
	// plain single-process run), "worker-N" for grid workers. The
	// coordinator stamps it while merging, so workers need no
	// self-assigned identity.
	Node string `json:"node,omitempty"`
}

// Span records one lab job as the scheduler actually executed it, or —
// for phase "run" — one injection run inside a divergence-aware
// campaign job.
type Span struct {
	Key     string   `json:"key"`   // spec content-hash key
	Phase   string   `json:"phase"` // golden | profile | campaign | detector | run
	Deps    []string `json:"deps,omitempty"`
	Cache   string   `json:"cache"` // computed | memory | disk
	QueueNs int64    `json:"queue_ns"`
	ExecNs  int64    `json:"exec_ns"`
	Worker  int      `json:"worker"`
	// SimulatedSteps is the [from, to) step range the run actually
	// simulated (phase "run" only; schema >= 2). A spliced run's range
	// ends at the reconvergence step — everything the trace holds beyond
	// it came from the golden suffix.
	SimulatedSteps []int `json:"simulated_steps,omitempty"`
	// ExitReason is why simulation stopped short of the scenario end:
	// ExitSplice (ExitEarly in older ledgers). Empty for full-length
	// runs.
	ExitReason string `json:"exit_reason,omitempty"`
	// Surface names the fault surface a run span injected through
	// (phase "run" only; schema >= 4): SurfaceInstr, SurfaceSensor, or
	// SurfaceHallucinate. Empty in older ledgers and on job spans.
	Surface string `json:"surface,omitempty"`
	// Node identifies the process that executed this span in a merged
	// multi-process ledger (schema >= 3); see Meta.Node. Worker within
	// that process stays in the Worker field.
	Node string `json:"node,omitempty"`
}

// PropSample is one point of a propagation record's deviation
// trajectory: how far the injected run's behavior sat from the golden
// run's at one probe step.
type PropSample struct {
	Step int `json:"step"`
	// Lateral is the ego's positional deviation from the golden pose in
	// meters; Heading the absolute yaw deviation in radians.
	Lateral float64 `json:"lateral"`
	Heading float64 `json:"heading"`
	// CVIP is the run's own closest-vehicle-in-path distance at the
	// sample (<0: none in range); TTC the distance-over-speed time to
	// collision derived from it (<0: undefined).
	CVIP float64 `json:"cvip"`
	TTC  float64 `json:"ttc"`
}

// Propagation records how one injected run's corruption propagated
// (schema >= 5): which subsystem diverged from the golden execution
// first and when, how long after fault activation, the deepest boundary
// the corruption crossed, and the deviation trajectory while diverged.
// Emitted once per injected run that was observed to diverge; runs
// whose fault never perturbed any probed state carry no record.
type Propagation struct {
	// Key is the run's identity, matching its run span
	// ("<campaign-key>/run-NNN").
	Key string `json:"key"`
	// Surface names the fault surface (SurfaceInstr, SurfaceSensor,
	// SurfaceHallucinate); Site is the injection plan's human-readable
	// site description (the fault string).
	Surface string `json:"surface"`
	Site    string `json:"site,omitempty"`
	// Window is the surface's [start, end) activation window in steps,
	// when the plan is windowed (sensor/perception surfaces); nil for
	// surfaces whose reach is instruction-indexed.
	Window []int `json:"window,omitempty"`
	// Subsystem is the first subsystem observed diverged, Step the probe
	// step that observed it, ActivationStep the first step at which the
	// fault had activated (-1: never observed), LatencySteps the
	// activation-to-divergence latency (-1: unknown).
	Subsystem      string `json:"subsystem"`
	Step           int    `json:"step"`
	ActivationStep int    `json:"activation_step"`
	LatencySteps   int    `json:"latency_steps"`
	// Boundary is the deepest boundary crossed (BoundaryState,
	// BoundaryControl, BoundaryTrajectory); Reconverged reports whether
	// the run was observed bit-exactly back on the golden execution.
	Boundary    string `json:"boundary"`
	Reconverged bool   `json:"reconverged"`
	// Verdict is the campaign's taxonomy for the run: "sdc", "due", or
	// "masked".
	Verdict string `json:"verdict,omitempty"`
	// Trajectory-deviation aggregates over the run's recorded trace:
	// max positional deviation from the golden trajectory, min CVIP and
	// min TTC (<0: undefined).
	MaxLateral float64 `json:"max_lateral"`
	MinCVIP    float64 `json:"min_cvip"`
	MinTTC     float64 `json:"min_ttc"`
	// Subsystems maps each subsystem that ever diverged to the probe
	// step that first observed it.
	Subsystems map[string]int `json:"subsystems,omitempty"`
	// Samples is the deviation trajectory at probe cadence, while
	// diverged.
	Samples []PropSample `json:"samples,omitempty"`
	// Node identifies the process that executed the run in a merged
	// multi-process ledger; see Meta.Node.
	Node string `json:"node,omitempty"`
}

// Record is the tagged union written one-per-line to the ledger.
// Exactly one of Meta/Span/Metrics/Prop is set, per Type.
type Record struct {
	Type      string           `json:"type"`
	ElapsedNs int64            `json:"elapsed_ns"`
	Meta      *Meta            `json:"meta,omitempty"`
	Span      *Span            `json:"span,omitempty"`
	Metrics   map[string]int64 `json:"metrics,omitempty"`
	Prop      *Propagation     `json:"propagation,omitempty"`
}

// Ledger writes telemetry records as JSON lines. All methods are safe
// on a nil *Ledger (no-ops) and for concurrent use, so producers can
// emit unconditionally.
type Ledger struct {
	mu    sync.Mutex
	w     *bufio.Writer
	c     io.Closer
	start time.Time
}

// NewLedger wraps w in a ledger. The caller owns w's lifetime; Close
// flushes but only closes w if it implements io.Closer and was opened
// by OpenLedger.
func NewLedger(w io.Writer) *Ledger {
	return &Ledger{w: bufio.NewWriter(w), start: time.Now()}
}

// OpenLedger creates (truncating) the ledger file at path.
func OpenLedger(path string) (*Ledger, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	l := NewLedger(f)
	l.c = f
	return l, nil
}

// Emit appends one record, stamping ElapsedNs since the ledger opened.
func (l *Ledger) Emit(rec Record) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	rec.ElapsedNs = time.Since(l.start).Nanoseconds()
	b, err := json.Marshal(rec)
	if err != nil {
		return // a ledger record is never worth failing the run for
	}
	l.w.Write(b)
	l.w.WriteByte('\n')
}

// EmitRaw appends a fully-formed record verbatim, preserving its
// ElapsedNs stamp instead of restamping against this ledger's clock. A
// grid coordinator uses it to splice worker-produced records into the
// merged ledger: each record keeps the elapsed time measured on the
// process that did the work.
func (l *Ledger) EmitRaw(rec Record) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := json.Marshal(rec)
	if err != nil {
		return
	}
	l.w.Write(b)
	l.w.WriteByte('\n')
}

// Flush forces buffered records to the underlying writer without
// closing it. Safe on nil. Workers streaming their ledger over a pipe
// or line buffer flush after every job so the coordinator sees complete
// lines even if the worker later dies.
func (l *Ledger) Flush() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Flush()
}

// EmitMeta writes the invocation-metadata record (first in the file).
func (l *Ledger) EmitMeta(m Meta) { l.Emit(Record{Type: RecordMeta, Meta: &m}) }

// EmitSpan writes one lab-job span.
func (l *Ledger) EmitSpan(s Span) { l.Emit(Record{Type: RecordSpan, Span: &s}) }

// EmitProp writes one run's fault-propagation record.
func (l *Ledger) EmitProp(p Propagation) { l.Emit(Record{Type: RecordPropagation, Prop: &p}) }

// EmitMetrics writes a metrics snapshot.
func (l *Ledger) EmitMetrics(m map[string]int64) {
	if len(m) == 0 {
		return
	}
	l.Emit(Record{Type: RecordMetrics, Metrics: m})
}

// Close flushes buffered records and closes the underlying file when
// the ledger owns one. Safe on nil.
func (l *Ledger) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.w.Flush()
	if l.c != nil {
		if cerr := l.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// NewMeta fills a Meta for the current process: runtime facts plus the
// repository git SHA when one is discoverable.
func NewMeta(tool string) Meta {
	return Meta{
		Tool:       tool,
		Args:       os.Args[1:],
		Start:      time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GitSHA:     GitSHA(),
		Schema:     SchemaVersion,
	}
}

// ReadLedger decodes a JSONL ledger stream into typed records.
func ReadLedger(r io.Reader) ([]Record, error) {
	var recs []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("ledger line %d: %w", line, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}

// Validate checks a decoded ledger against the schema: a leading meta
// record with a supported schema version, known record types,
// well-formed spans (nonempty key and phase, known cache status,
// non-negative durations, well-formed simulated_steps ranges and known
// exit reasons when present), and non-negative elapsed stamps. Ledgers
// written before schema versioning (no schema field, no run spans)
// validate unchanged.
func Validate(recs []Record) error {
	if len(recs) == 0 {
		return fmt.Errorf("ledger is empty")
	}
	if recs[0].Type != RecordMeta || recs[0].Meta == nil {
		return fmt.Errorf("ledger record 1: want leading %q record, got %q", RecordMeta, recs[0].Type)
	}
	for i, rec := range recs {
		n := i + 1
		if rec.ElapsedNs < 0 {
			return fmt.Errorf("ledger record %d: negative elapsed_ns %d", n, rec.ElapsedNs)
		}
		switch rec.Type {
		case RecordMeta:
			if rec.Meta == nil {
				return fmt.Errorf("ledger record %d: meta record without meta body", n)
			}
			if rec.Meta.Tool == "" {
				return fmt.Errorf("ledger record %d: meta without tool", n)
			}
			if rec.Meta.Schema < 0 || rec.Meta.Schema > SchemaVersion {
				return fmt.Errorf("ledger record %d: schema %d not supported (this reader knows <= %d)",
					n, rec.Meta.Schema, SchemaVersion)
			}
		case RecordSpan:
			s := rec.Span
			if s == nil {
				return fmt.Errorf("ledger record %d: span record without span body", n)
			}
			if s.Key == "" {
				return fmt.Errorf("ledger record %d: span without key", n)
			}
			if s.Phase == "" {
				return fmt.Errorf("ledger record %d: span without phase", n)
			}
			switch s.Cache {
			case CacheComputed, CacheMemory, CacheDisk:
			default:
				return fmt.Errorf("ledger record %d: unknown cache status %q", n, s.Cache)
			}
			if s.QueueNs < 0 || s.ExecNs < 0 {
				return fmt.Errorf("ledger record %d: negative span duration", n)
			}
			if ss := s.SimulatedSteps; ss != nil {
				if len(ss) != 2 || ss[0] < 0 || ss[1] < ss[0] {
					return fmt.Errorf("ledger record %d: malformed simulated_steps %v (want [from, to), 0 <= from <= to)", n, ss)
				}
			}
			switch s.ExitReason {
			case "", ExitSplice, ExitEarly:
			default:
				return fmt.Errorf("ledger record %d: unknown exit_reason %q", n, s.ExitReason)
			}
			switch s.Surface {
			case "", SurfaceInstr, SurfaceSensor, SurfaceHallucinate:
			default:
				return fmt.Errorf("ledger record %d: unknown surface %q", n, s.Surface)
			}
		case RecordMetrics:
			if len(rec.Metrics) == 0 {
				return fmt.Errorf("ledger record %d: metrics record without metrics", n)
			}
		case RecordPropagation:
			p := rec.Prop
			if p == nil {
				return fmt.Errorf("ledger record %d: propagation record without body", n)
			}
			if p.Key == "" {
				return fmt.Errorf("ledger record %d: propagation without key", n)
			}
			switch p.Surface {
			case SurfaceInstr, SurfaceSensor, SurfaceHallucinate:
			default:
				return fmt.Errorf("ledger record %d: unknown surface %q", n, p.Surface)
			}
			switch p.Subsystem {
			case SubsystemEnv, SubsystemIMU, SubsystemJitter,
				SubsystemAgent0, SubsystemAgent1, SubsystemCtrl, SubsystemTrace:
			default:
				return fmt.Errorf("ledger record %d: unknown subsystem %q", n, p.Subsystem)
			}
			switch p.Boundary {
			case BoundaryState, BoundaryControl, BoundaryTrajectory:
			default:
				return fmt.Errorf("ledger record %d: unknown boundary %q", n, p.Boundary)
			}
			switch p.Verdict {
			case "", VerdictSDC, VerdictDUE, VerdictMasked:
			default:
				return fmt.Errorf("ledger record %d: unknown verdict %q", n, p.Verdict)
			}
			if p.Step < 0 {
				return fmt.Errorf("ledger record %d: negative propagation step %d", n, p.Step)
			}
			if p.ActivationStep < -1 || p.LatencySteps < -1 {
				return fmt.Errorf("ledger record %d: malformed propagation latency (activation %d, latency %d)",
					n, p.ActivationStep, p.LatencySteps)
			}
			if w := p.Window; w != nil && (len(w) != 2 || w[0] < 0 || w[1] < w[0]) {
				return fmt.Errorf("ledger record %d: malformed propagation window %v (want [start, end), 0 <= start <= end)", n, w)
			}
		default:
			return fmt.Errorf("ledger record %d: unknown type %q", n, rec.Type)
		}
	}
	return nil
}
