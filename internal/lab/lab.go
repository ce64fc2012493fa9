// Package lab is the experiment orchestration layer: a declarative
// front-end over the simulator in which every artifact of the paper's
// evaluation pipeline — golden control runs, profiling passes,
// fault-injection campaigns, trained detectors — is named by a typed
// Spec with a stable content-hash Key.
//
// A Lab is a memoizing artifact store plus a dependency-aware scheduler.
// Require expands a set of requested specs into a job DAG (campaigns
// depend on their golden sets and, for cold/permanent execution, on
// shared profiling passes) and executes independent jobs concurrently on
// the internal/par pool; artifacts are computed once per key and served
// from memory afterwards. With SetDisk, artifacts additionally persist
// as gob files, so a warm cache makes repeat invocations
// simulation-free. Results are deterministic regardless of worker count
// or completion order: jobs only write their own keyed slot, and every
// simulation seed is fixed by the spec.
package lab

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"diverseav/internal/core"
	"diverseav/internal/fi"
	"diverseav/internal/obs"
	"diverseav/internal/par"
	"diverseav/internal/scenario"
	"diverseav/internal/sim"
)

// Lab memoizes experiment artifacts by spec key and schedules their
// computation. The zero value is not usable; call New.
type Lab struct {
	mu       sync.Mutex
	mem      map[string]any
	inflight map[string]chan struct{}
	registry map[string]*scenario.Scenario
	store    Store  // nil = memory only
	remote   Remote // nil = every job executes in this process

	logMu sync.Mutex
	logf  func(format string, args ...any)

	ledger   *obs.Ledger
	progress func(done, total int)

	computed    atomic.Int64
	memHits     atomic.Int64
	diskHits    atomic.Int64
	diskCorrupt atomic.Int64
}

// New returns an empty in-memory lab.
func New() *Lab {
	return &Lab{
		mem:      make(map[string]any),
		inflight: make(map[string]chan struct{}),
		registry: make(map[string]*scenario.Scenario),
	}
}

// SetDisk enables the gob-on-disk artifact layer rooted at dir (created
// if missing): shorthand for SetStore(NewDiskStore(dir)). Artifacts
// already on disk are loaded instead of computed; newly computed
// artifacts are written back. Disk errors are never fatal: a bad or
// stale file just means the artifact is recomputed.
func (l *Lab) SetDisk(dir string) error {
	st, err := NewDiskStore(dir)
	if err != nil {
		return err
	}
	l.SetStore(st)
	return nil
}

// SetStore attaches a content-addressed artifact store (nil detaches
// it): every fetch consults the store before computing, and every
// computed artifact is written through. The store is the sharing
// surface between processes — a directory for CLI reruns, the
// coordinator's HTTP store for a grid worker.
func (l *Lab) SetStore(st Store) {
	l.mu.Lock()
	l.store = st
	l.mu.Unlock()
}

// Store returns the attached artifact store, nil when memory-only.
func (l *Lab) Store() Store {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.store
}

// Remote executes a batch of specs somewhere other than this process —
// the grid coordinator dispatching the DAG to pulling workers. Run
// returns once every artifact is either in the lab's store or
// abandoned; it reports abandoned work as an error, which Require
// treats as "compute the remainder locally", never as fatal.
type Remote interface {
	Run(specs []Spec) error
}

// SetRemote installs a remote executor (nil detaches it): Require first
// hands the scheduled closure to the remote, then runs its normal local
// pass, which finds the remotely computed artifacts in the shared store
// and degrades to local computation for anything the remote could not
// finish. Results are byte-identical either way — every artifact is a
// pure function of its spec — so remote execution is pure strategy,
// like fork/splice/lane width at the run level.
func (l *Lab) SetRemote(r Remote) {
	l.mu.Lock()
	l.remote = r
	l.mu.Unlock()
}

// SetLog installs a progress logger (nil disables logging).
func (l *Lab) SetLog(f func(format string, args ...any)) {
	l.logMu.Lock()
	l.logf = f
	l.logMu.Unlock()
}

// SetLedger attaches a telemetry ledger: every job Require schedules
// emits a span record (key, phase, deps, cache status, queue/exec
// time, worker). A nil ledger (the default) disables span emission.
func (l *Lab) SetLedger(led *obs.Ledger) {
	l.mu.Lock()
	l.ledger = led
	l.mu.Unlock()
}

// Ledger returns the attached telemetry ledger, nil when none. Job
// bodies use it to emit finer-grained spans than the per-job ones the
// scheduler writes (e.g. the per-injection-run spans of a
// divergence-aware campaign).
func (l *Lab) Ledger() *obs.Ledger {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ledger
}

// SetProgress installs a completion callback invoked after every
// Require job with (jobs done, jobs scheduled) for that Require call.
// Callbacks may arrive concurrently from pool workers.
func (l *Lab) SetProgress(f func(done, total int)) {
	l.mu.Lock()
	l.progress = f
	l.mu.Unlock()
}

func (l *Lab) log(format string, args ...any) {
	l.logMu.Lock()
	f := l.logf
	l.logMu.Unlock()
	if f != nil {
		f(format, args...)
	}
}

// RegisterScenario makes sc resolvable by name for this lab's jobs,
// taking precedence over the built-in scenario library. Registering a
// variant under a library name (e.g. a shortened "LeadSlowdown" in
// tests) is allowed, but note that spec keys identify scenarios by name:
// don't mix such variants with a shared disk cache.
func (l *Lab) RegisterScenario(sc *scenario.Scenario) {
	l.mu.Lock()
	l.registry[sc.Name] = sc
	l.mu.Unlock()
}

func (l *Lab) scenarioByName(name string) *scenario.Scenario {
	l.mu.Lock()
	sc := l.registry[name]
	l.mu.Unlock()
	if sc != nil {
		return sc
	}
	if sc := scenario.ByName(name); sc != nil {
		return sc
	}
	panic(fmt.Sprintf("lab: unknown scenario %q (not registered and not in the library)", name))
}

// Stats reports store activity since New.
type Stats struct {
	Computed    int64 // artifacts computed by running simulations
	MemoryHits  int64 // requests served from the in-memory store
	DiskHits    int64 // artifacts loaded from the disk cache
	DiskCorrupt int64 // unusable (corrupt/stale) disk entries recomputed
}

// Stats returns a snapshot of store counters.
func (l *Lab) Stats() Stats {
	return Stats{
		Computed:    l.computed.Load(),
		MemoryHits:  l.memHits.Load(),
		DiskHits:    l.diskHits.Load(),
		DiskCorrupt: l.diskCorrupt.Load(),
	}
}

// labInstruments mirrors the store counters into the flight recorder.
type labInstruments struct {
	computed    *obs.Counter
	memHits     *obs.Counter
	diskHits    *obs.Counter
	diskCorrupt *obs.Counter
	exec        *obs.Histogram // per-job exec time, ns
}

var (
	labInstOnce sync.Once
	labInst     labInstruments
)

func instruments() *labInstruments {
	if !obs.Enabled() {
		return nil
	}
	labInstOnce.Do(func() {
		labInst = labInstruments{
			computed:    obs.C("lab.computed"),
			memHits:     obs.C("lab.mem_hits"),
			diskHits:    obs.C("lab.disk_hits"),
			diskCorrupt: obs.C("lab.disk_corrupt"),
			exec:        obs.H("lab.exec_ns", obs.DurationBuckets),
		}
	})
	return &labInst
}

// get returns the artifact for s; fetch additionally reports how it was
// obtained.
func (l *Lab) get(s Spec) any {
	v, _ := l.fetch(s)
	return v
}

// fetch returns the artifact for s and its cache status, computing (or
// disk-loading) it at most once per key across all goroutines:
// concurrent requests for the same key block on a single in-flight
// computation.
func (l *Lab) fetch(s Spec) (any, string) {
	s = s.normalize()
	key := s.Key()
	for {
		l.mu.Lock()
		if v, ok := l.mem[key]; ok {
			l.mu.Unlock()
			l.memHits.Add(1)
			if in := instruments(); in != nil {
				in.memHits.Inc()
			}
			return v, obs.CacheMemory
		}
		if ch, ok := l.inflight[key]; ok {
			l.mu.Unlock()
			<-ch
			continue // the winner has published to mem
		}
		ch := make(chan struct{})
		l.inflight[key] = ch
		store := l.store
		l.mu.Unlock()

		v, status := l.produce(s, key, store)

		l.mu.Lock()
		l.mem[key] = v
		delete(l.inflight, key)
		l.mu.Unlock()
		close(ch)
		return v, status
	}
}

func (l *Lab) produce(s Spec, key string, store Store) (any, string) {
	if store != nil {
		v, err := l.loadStore(s, key, store)
		switch {
		case err == nil:
			l.diskHits.Add(1)
			if in := instruments(); in != nil {
				in.diskHits.Inc()
			}
			l.log("lab: loaded %s", key)
			return v, obs.CacheDisk
		case !errors.Is(err, errCacheMiss):
			// The entry exists but is unusable (torn write, version skew,
			// size/key mismatch): recomputing silently would hide cache
			// rot, so count it and warn.
			l.diskCorrupt.Add(1)
			if in := instruments(); in != nil {
				in.diskCorrupt.Inc()
			}
			fmt.Fprintf(os.Stderr, "lab: cache entry %s unusable (%v); recomputing\n", key, err)
		}
	}
	l.log("lab: computing %s", key)
	v := s.run(l)
	l.computed.Add(1)
	if in := instruments(); in != nil {
		in.computed.Inc()
	}
	if store != nil {
		if err := l.saveStore(s, key, store, v); err != nil {
			l.log("lab: cache write %s: %v", key, err)
		}
	}
	return v, obs.CacheComputed
}

// loadStore reads an artifact back through the store; saveStore writes
// one through. Both funnel through the wire codec in disk.go.
func (l *Lab) loadStore(s Spec, key string, store Store) (any, error) {
	data, err := store.Get(key)
	if err != nil {
		return nil, err
	}
	return l.decodeArtifact(s, key, data)
}

func (l *Lab) saveStore(s Spec, key string, store Store, v any) error {
	data, err := encodeArtifact(s, key, v)
	if err != nil {
		return err
	}
	return store.Put(key, data)
}

// errCacheMiss is the benign "no entry" case loadStore propagates from
// the store and the codec; it aliases ErrNotFound so store
// implementations and the produce path agree on it.
var errCacheMiss = ErrNotFound

// EncodeArtifact returns the wire encoding of s's already-materialized
// artifact — the bytes a Store holds for its key. It errors if the
// artifact has not been materialized in this lab.
func (l *Lab) EncodeArtifact(s Spec) ([]byte, error) {
	s = s.normalize()
	key := s.Key()
	l.mu.Lock()
	v, ok := l.mem[key]
	l.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("lab: artifact %s not materialized", key)
	}
	return encodeArtifact(s, key, v)
}

// Require materializes every requested artifact, scheduling the full
// dependency closure as a job DAG on the internal/par pool: independent
// jobs (different campaigns, detector training, unrelated golden sets)
// run concurrently, and a job starts only once its dependencies are
// stored. Artifacts already memoized are not re-run. After Require
// returns, the typed getters below are cheap memory hits, in whatever
// order the caller reads them.
func (l *Lab) Require(specs ...Spec) {
	type node struct {
		spec    Spec
		key     string
		pending atomic.Int32 // unresolved deps
		blocks  []*node      // nodes waiting on this one
		// enqueued is when the node entered the ready queue (span queue
		// wait). Written before the channel send, read after the receive;
		// the channel is the happens-before edge.
		enqueued time.Time
	}
	nodes := make(map[string]*node)
	var order []*node // insertion order, for deterministic seeding of the queue

	// Expand the dependency closure. Specs whose artifacts are already in
	// memory are pruned (their deps too, unless needed elsewhere).
	var add func(s Spec) *node
	add = func(s Spec) *node {
		s = s.normalize()
		key := s.Key()
		if n, ok := nodes[key]; ok {
			return n
		}
		l.mu.Lock()
		_, done := l.mem[key]
		l.mu.Unlock()
		if done {
			return nil
		}
		n := &node{spec: s, key: key}
		nodes[key] = n
		order = append(order, n)
		for _, d := range s.deps() {
			if dn := add(d); dn != nil {
				dn.blocks = append(dn.blocks, n)
				n.pending.Add(1)
			}
		}
		return n
	}
	for _, s := range specs {
		add(s)
	}
	if len(order) == 0 {
		return
	}

	l.mu.Lock()
	ledger, progress, remote := l.ledger, l.progress, l.remote
	l.mu.Unlock()

	// With a remote executor attached, hand the scheduled closure to it
	// first: workers compute the artifacts into the shared store, and the
	// local pass below turns into store loads. Remote failure (or partial
	// completion — abandoned jobs after worker deaths) is never fatal:
	// whatever the fleet did not deliver is computed locally.
	if remote != nil {
		specs := make([]Spec, len(order))
		for i, n := range order {
			specs[i] = n.spec
		}
		if err := remote.Run(specs); err != nil {
			l.log("lab: remote execution incomplete (%v); computing the remainder locally", err)
		}
	}
	// Spans and the exec histogram need timestamps; skip the clock reads
	// entirely when nothing consumes them.
	timed := ledger != nil || obs.Enabled()

	// Ready queue, buffered to hold every node so completions never block.
	ready := make(chan *node, len(order))
	now := time.Time{}
	if timed {
		now = time.Now()
	}
	for _, n := range order {
		if n.pending.Load() == 0 {
			n.enqueued = now
			ready <- n
		}
	}
	total := len(order)
	var remaining atomic.Int64
	remaining.Store(int64(total))
	var done atomic.Int64

	workers := par.Workers()
	if workers > total {
		workers = total
	}
	par.ForEach(workers, func(w int) {
		for n := range ready {
			var start time.Time
			if timed {
				start = time.Now()
			}
			_, status := l.fetch(n.spec) // memoizes; concurrent duplicate keys coalesce
			if timed {
				exec := time.Since(start)
				if in := instruments(); in != nil {
					in.exec.Observe(exec.Nanoseconds())
				}
				if ledger != nil {
					deps := n.spec.deps()
					depKeys := make([]string, len(deps))
					for i, d := range deps {
						depKeys[i] = d.Key()
					}
					ledger.EmitSpan(obs.Span{
						Key:     n.key,
						Phase:   n.spec.kind(),
						Deps:    depKeys,
						Cache:   status,
						QueueNs: start.Sub(n.enqueued).Nanoseconds(),
						ExecNs:  exec.Nanoseconds(),
						Worker:  w,
					})
				}
			}
			if progress != nil {
				progress(int(done.Add(1)), total)
			}
			for _, b := range n.blocks {
				if b.pending.Add(-1) == 0 {
					if timed {
						b.enqueued = time.Now()
					}
					ready <- b
				}
			}
			if remaining.Add(-1) == 0 {
				close(ready)
			}
		}
	})
}

// Golden returns the golden control runs for s, computing them if needed.
func (l *Lab) Golden(s GoldenSpec) []*sim.Result { return l.get(s).([]*sim.Result) }

// Profile returns the fault-free instruction profile for s, computing it
// if needed.
func (l *Lab) Profile(s ProfileSpec) *fi.Profile { return l.get(s).(*fi.Profile) }

// Campaign returns the executed campaign for s, computing it if needed.
func (l *Lab) Campaign(s CampaignSpec) *Campaign { return l.get(s).(*Campaign) }

// Detector returns the trained detector for s, computing it if needed.
func (l *Lab) Detector(s DetectorSpec) *core.Detector { return l.get(s).(*core.Detector) }

// ProvideGolden publishes a caller-computed golden set under s's key, so
// campaigns depending on s reuse it instead of re-simulating.
func (l *Lab) ProvideGolden(s GoldenSpec, golden []*sim.Result) {
	key := s.normalize().Key()
	l.mu.Lock()
	l.mem[key] = golden
	l.mu.Unlock()
}
