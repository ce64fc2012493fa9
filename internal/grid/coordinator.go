package grid

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"diverseav/internal/lab"
	"diverseav/internal/obs"
)

// Config tunes a Coordinator. The zero value selects the defaults.
type Config struct {
	// Lease is how long a worker holds a job before the coordinator
	// assumes the worker died and requeues it (default 60s). A lease
	// shorter than the job is benign: the duplicate execution writes
	// identical bytes.
	Lease time.Duration
	// MaxAttempts caps how many times one job is leased before it is
	// abandoned — together with its dependents — instead of requeued
	// (default 3). Abandoned work is reported by Run and recomputed
	// locally by the caller's lab.
	MaxAttempts int
	// Stall bounds how long Run keeps outstanding work on the queue with
	// no worker polling at all (default 2×Lease, min 10s): when the whole
	// fleet disappears — or never showed up — the batch is abandoned so
	// the caller falls back to local execution instead of hanging.
	Stall time.Duration
	// Log receives coordinator progress lines (nil disables).
	Log func(format string, args ...any)
	// Progress, when non-nil, is redrawn live while Run dispatches a
	// batch: done/total jobs, plus a leased/worker summary as the extra
	// suffix. The same obs.Progress drivers hand to a local lab, so a
	// grid run reports on stderr exactly like a local one.
	Progress *obs.Progress
}

func (c Config) withDefaults() Config {
	if c.Lease <= 0 {
		c.Lease = 60 * time.Second
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.Stall <= 0 {
		c.Stall = 2 * c.Lease
		if c.Stall < 10*time.Second {
			c.Stall = 10 * time.Second
		}
	}
	return c
}

// job states, in lifecycle order.
const (
	jWaiting   = iota // dependencies outstanding
	jReady            // on the ready queue
	jLeased           // handed to a worker, lease running
	jDone             // artifact in the store
	jAbandoned        // attempt cap hit, or a dependency was abandoned
)

type job struct {
	node       lab.PlanNode
	spec       []byte // JSON envelope served to workers
	state      int
	pending    int    // unresolved dependencies
	dependents []*job // jobs waiting on this one
	expiry     time.Time
	attempts   int
	// worker/leasedAt describe the live lease (state jLeased): who holds
	// it and since when. Surfaced by /grid/status.
	worker   int
	leasedAt time.Time
}

// Coordinator owns the job queue for a batch of lab specs and the HTTP
// surface workers pull from. It implements lab.Remote, so attaching it
// with Lab.SetRemote turns every Require into a distributed run with
// local fallback. The artifact store it serves is the same store the
// local lab reads, which is how results flow back without any result
// message: a job is "done" exactly when its bytes are in the store.
type Coordinator struct {
	store  lab.Store
	cfg    Config
	ledger *obs.Ledger

	mu          sync.Mutex
	jobs        map[string]*job
	ready       []*job // FIFO, seeded in deterministic plan order
	outstanding int    // jobs neither done nor abandoned
	abandoned   []string
	batchDone   chan struct{}
	active      bool
	closed      bool
	nextWorker  int
	retired     map[int]bool // worker id → has seen the shutdown signal
	lastPoll    time.Time
	batchTotal  int // jobs queued at Run start (progress denominator)
	// Artifact-store traffic counters for /grid/status: GET/HEAD
	// requests split into hits and misses, and PUT uploads.
	storeHits   int
	storeMisses int
	storePuts   int
}

// NewCoordinator serves jobs whose artifacts land in store — typically
// the same DiskStore the coordinator's own lab reads.
func NewCoordinator(store lab.Store, cfg Config) *Coordinator {
	return &Coordinator{
		store:   store,
		cfg:     cfg.withDefaults(),
		retired: make(map[int]bool),
	}
}

// SetLedger attaches the merged-telemetry ledger: worker-posted JSONL
// batches are stamped with the worker's node identity and spliced in
// verbatim (obs.Ledger.EmitRaw), so one file holds the whole fleet's
// spans and ledgerstats reads it like any single-process ledger.
func (c *Coordinator) SetLedger(led *obs.Ledger) {
	c.mu.Lock()
	c.ledger = led
	c.mu.Unlock()
}

func (c *Coordinator) log(format string, args ...any) {
	if c.cfg.Log != nil {
		c.cfg.Log(format, args...)
	}
}

// Run implements lab.Remote: expand specs into their dependency-closure
// plan, queue every job whose artifact is not already stored, and block
// until the fleet has finished or abandoned all of them. A nil return
// means every artifact is in the store; an error lists abandoned jobs,
// which the caller's lab recomputes locally.
func (c *Coordinator) Run(specs []lab.Spec) error {
	plan := lab.Plan(specs...)

	c.mu.Lock()
	if c.active {
		c.mu.Unlock()
		return errors.New("grid: Run already in progress")
	}
	if c.closed {
		c.mu.Unlock()
		return errors.New("grid: coordinator is shut down")
	}
	jobs := make(map[string]*job, len(plan))
	for _, n := range plan {
		env, err := lab.EncodeSpec(n.Spec)
		if err != nil {
			c.mu.Unlock()
			return fmt.Errorf("grid: encode %s: %w", n.Key, err)
		}
		jobs[n.Key] = &job{node: n, spec: env}
	}
	for _, j := range jobs {
		for _, dk := range j.node.Deps {
			d := jobs[dk] // Plan closes over dependencies, so always present
			d.dependents = append(d.dependents, j)
			j.pending++
		}
	}
	c.jobs = jobs
	c.ready = nil
	c.outstanding = 0
	c.abandoned = nil
	// Plan order is deterministic (dependencies first), so walking it
	// both prunes store hits before their dependents are examined and
	// seeds the ready queue in a stable order.
	for _, n := range plan {
		j := jobs[n.Key]
		if c.store.Has(n.Key) {
			j.state = jDone
			for _, d := range j.dependents {
				d.pending--
			}
			continue
		}
		c.outstanding++
	}
	for _, n := range plan {
		j := jobs[n.Key]
		if j.state == jWaiting && j.pending == 0 {
			j.state = jReady
			c.ready = append(c.ready, j)
		}
	}
	if c.outstanding == 0 {
		c.jobs, c.ready, c.active = nil, nil, false
		c.mu.Unlock()
		return nil
	}
	done := make(chan struct{})
	c.batchDone = done
	c.active = true
	c.lastPoll = time.Now()
	queued := c.outstanding
	c.batchTotal = queued
	c.refreshProgress()
	c.mu.Unlock()

	c.log("grid: dispatching %d of %d jobs (%d already stored)", queued, len(plan), len(plan)-queued)

	ticker := time.NewTicker(50 * time.Millisecond)
	defer ticker.Stop()
waiting:
	for {
		select {
		case <-done:
			break waiting
		case <-ticker.C:
			c.mu.Lock()
			c.reapLeases(time.Now())
			if c.outstanding > 0 && time.Since(c.lastPoll) > c.cfg.Stall {
				c.log("grid: no worker poll for %s; abandoning %d outstanding jobs", c.cfg.Stall, c.outstanding)
				c.abandonAll()
			}
			c.mu.Unlock()
		}
	}

	c.mu.Lock()
	abandoned := c.abandoned
	c.jobs, c.ready, c.abandoned = nil, nil, nil
	c.active = false
	c.batchDone = nil
	c.batchTotal = 0
	c.mu.Unlock()
	c.cfg.Progress.Done()

	if len(abandoned) > 0 {
		return fmt.Errorf("grid: %d jobs abandoned (%s)", len(abandoned), strings.Join(abandoned, ", "))
	}
	c.log("grid: batch complete")
	return nil
}

// reapLeases requeues expired leases, abandoning jobs past the attempt
// cap. Called with c.mu held, both from the Run ticker and from the
// /job handler so tests with short leases observe requeues
// synchronously with the next poll.
func (c *Coordinator) reapLeases(now time.Time) {
	for _, j := range c.jobs {
		if j.state == jLeased && now.After(j.expiry) {
			if j.attempts >= c.cfg.MaxAttempts {
				c.log("grid: job %s lost its %dth lease; abandoning", j.node.Key, j.attempts)
				c.abandon(j)
			} else {
				c.log("grid: job %s lease expired; requeueing (attempt %d)", j.node.Key, j.attempts)
				j.state = jReady
				c.ready = append(c.ready, j)
			}
		}
	}
}

// abandon marks j and transitively everything depending on it as never
// going to complete on the grid. Called with c.mu held.
func (c *Coordinator) abandon(j *job) {
	if j.state == jDone || j.state == jAbandoned {
		return
	}
	j.state = jAbandoned
	c.abandoned = append(c.abandoned, j.node.Key)
	c.finishOne()
	for _, d := range j.dependents {
		c.abandon(d)
	}
}

// abandonAll abandons every job still outstanding. Called with c.mu held.
func (c *Coordinator) abandonAll() {
	for _, j := range c.jobs {
		c.abandon(j)
	}
}

// markDone records j's artifact as stored and releases its dependents.
// Called with c.mu held.
func (c *Coordinator) markDone(j *job) {
	j.state = jDone
	c.finishOne()
	for _, d := range j.dependents {
		if d.pending--; d.pending == 0 && d.state == jWaiting {
			d.state = jReady
			c.ready = append(c.ready, d)
		}
	}
}

// finishOne retires one outstanding job, waking Run when it was the
// last. Called with c.mu held.
func (c *Coordinator) finishOne() {
	if c.outstanding--; c.outstanding == 0 && c.batchDone != nil {
		close(c.batchDone)
		c.batchDone = nil
	}
	c.refreshProgress()
}

// refreshProgress redraws the live batch progress line (Config.
// Progress) from the queue state. Called with c.mu held; obs.Progress
// rate-limits its own redraws.
func (c *Coordinator) refreshProgress() {
	p := c.cfg.Progress
	if p == nil || c.batchTotal == 0 {
		return
	}
	leased := 0
	for _, j := range c.jobs {
		if j.state == jLeased {
			leased++
		}
	}
	p.SetExtra(fmt.Sprintf("%d leased, %d workers", leased, len(c.retired)))
	p.Update(c.batchTotal-c.outstanding, c.batchTotal)
}

// Close marks the coordinator as shutting down: every subsequent /job
// poll answers 410 Gone, which workers take as "post your final ledger
// batch and exit".
func (c *Coordinator) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
}

// Drain blocks until every worker that ever pinged has observed the
// shutdown signal (its post-Close /job poll), or until timeout — the
// allowance for workers that died without saying goodbye. Call after
// Close, before tearing down the HTTP server and the merged ledger.
func (c *Coordinator) Drain(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		all := true
		for _, r := range c.retired {
			if !r {
				all = false
				break
			}
		}
		c.mu.Unlock()
		if all || time.Now().After(deadline) {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Handler returns the coordinator's HTTP surface. Every request is
// version-gated: a worker built at a different artifact wire version is
// refused with a descriptive 400 before any payload is interpreted.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(pathPing, c.handlePing)
	mux.HandleFunc(pathJob, c.handleJob)
	mux.HandleFunc(pathDone, c.handleDone)
	mux.HandleFunc(pathFail, c.handleFail)
	mux.HandleFunc(pathArtifact, c.handleArtifact)
	mux.HandleFunc(pathLedger, c.handleLedger)
	mux.HandleFunc(pathStatus, c.handleStatus)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hdr := r.Header.Get(headerWire); hdr != "" && hdr != strconv.Itoa(lab.WireVersion) {
			http.Error(w, fmt.Sprintf("artifact wire version %s, this coordinator speaks %d — coordinator and workers must run the same build", hdr, lab.WireVersion), http.StatusBadRequest)
			return
		}
		mux.ServeHTTP(w, r)
	})
}

func (c *Coordinator) handlePing(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	c.nextWorker++
	id := c.nextWorker
	c.retired[id] = false
	telemetry := c.ledger != nil
	c.mu.Unlock()
	c.log("grid: worker-%d joined from %s", id, r.RemoteAddr)
	writeJSON(w, pingMsg{Wire: lab.WireVersion, Telemetry: telemetry, Worker: id})
}

func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	worker, workerErr := strconv.Atoi(r.URL.Query().Get("worker"))
	c.mu.Lock()
	if c.closed {
		if workerErr == nil {
			c.retired[worker] = true
		}
		c.mu.Unlock()
		w.WriteHeader(http.StatusGone)
		return
	}
	c.lastPoll = now
	c.reapLeases(now)
	var j *job
	if c.active && len(c.ready) > 0 {
		j = c.ready[0]
		c.ready = c.ready[1:]
		j.state = jLeased
		j.expiry = now.Add(c.cfg.Lease)
		j.attempts++
		j.worker = worker
		j.leasedAt = now
		c.refreshProgress()
	}
	c.mu.Unlock()
	if j == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, jobMsg{Key: j.node.Key, Kind: j.node.Kind, Spec: j.spec})
}

func (c *Coordinator) handleDone(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		http.Error(w, "missing key", http.StatusBadRequest)
		return
	}
	// "Done" is defined by the store, not by the claim: without the
	// bytes, dependents would fetch a miss. 409 tells the worker to
	// upload explicitly and retry.
	if !c.store.Has(key) {
		http.Error(w, "artifact not in store", http.StatusConflict)
		return
	}
	c.mu.Lock()
	// A stale completion — the job was requeued and finished elsewhere,
	// or the batch is over — is harmless by determinism: the bytes are
	// identical, so just acknowledge it.
	if j := c.jobs[key]; j != nil && j.state != jDone && j.state != jAbandoned {
		c.markDone(j)
	}
	c.mu.Unlock()
}

func (c *Coordinator) handleFail(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	reason, _ := io.ReadAll(io.LimitReader(r.Body, 4096))
	c.mu.Lock()
	if j := c.jobs[key]; j != nil && j.state == jLeased {
		if j.attempts >= c.cfg.MaxAttempts {
			c.log("grid: job %s failed on attempt %d (%s); abandoning", key, j.attempts, bytes.TrimSpace(reason))
			c.abandon(j)
		} else {
			c.log("grid: job %s failed (%s); requeueing", key, bytes.TrimSpace(reason))
			j.state = jReady
			c.ready = append(c.ready, j)
		}
	}
	c.mu.Unlock()
}

func (c *Coordinator) handleArtifact(w http.ResponseWriter, r *http.Request) {
	key := strings.TrimPrefix(r.URL.Path, pathArtifact)
	if key == "" || strings.ContainsAny(key, "/\\") {
		http.Error(w, "bad artifact key", http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		data, err := c.store.Get(key)
		if errors.Is(err, lab.ErrNotFound) {
			c.mu.Lock()
			c.storeMisses++
			c.mu.Unlock()
			http.NotFound(w, r)
			return
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		c.mu.Lock()
		c.storeHits++
		c.mu.Unlock()
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set(headerSHA, artifactSum(data))
		w.Header().Set("Content-Length", strconv.Itoa(len(data)))
		if r.Method == http.MethodHead {
			return
		}
		w.Write(data)
	case http.MethodPut:
		data, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		want := r.Header.Get(headerSHA)
		if want == "" {
			http.Error(w, "missing "+headerSHA, http.StatusBadRequest)
			return
		}
		if got := artifactSum(data); got != want {
			http.Error(w, fmt.Sprintf("artifact integrity: body hashes to %s, header claims %s", got, want), http.StatusBadRequest)
			return
		}
		if err := c.store.Put(key, data); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		c.mu.Lock()
		c.storePuts++
		c.mu.Unlock()
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (c *Coordinator) handleLedger(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	led := c.ledger
	c.mu.Unlock()
	if led == nil {
		return // telemetry off: accept and drop
	}
	recs, err := obs.ReadLedger(bytes.NewReader(body))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	node := "worker-" + r.URL.Query().Get("worker")
	for _, rec := range recs {
		if rec.Meta != nil && rec.Meta.Node == "" {
			rec.Meta.Node = node
		}
		if rec.Span != nil && rec.Span.Node == "" {
			rec.Span.Node = node
		}
		if rec.Prop != nil && rec.Prop.Node == "" {
			rec.Prop.Node = node
		}
		led.EmitRaw(rec)
	}
}

// statusMsg is the /grid/status snapshot: the batch queue by state,
// every worker that ever pinged with its live leases, and artifact-
// store traffic since the coordinator started.
type statusMsg struct {
	Active    bool           `json:"active"`
	Queued    int            `json:"queued"` // waiting + ready
	Leased    int            `json:"leased"`
	Done      int            `json:"done"`
	Abandoned int            `json:"abandoned"`
	Workers   []workerStatus `json:"workers,omitempty"`
	Store     storeStatus    `json:"store"`
}

// workerStatus is one worker's live view: how many jobs it holds
// leases on, the age of its oldest live lease, and whether it has
// already observed the shutdown signal.
type workerStatus struct {
	Worker         int     `json:"worker"`
	Leases         int     `json:"leases"`
	OldestLeaseSec float64 `json:"oldest_lease_sec,omitempty"`
	Retired        bool    `json:"retired"`
}

// storeStatus counts artifact-store HTTP traffic: fetch hits and
// misses, and uploads.
type storeStatus struct {
	Hits   int `json:"hits"`
	Misses int `json:"misses"`
	Puts   int `json:"puts"`
}

// handleStatus serves the live campaign status as JSON: a read-only
// snapshot for dashboards and humans watching a long batch (curl
// <coordinator>/grid/status). Between batches every queue count is
// zero and active is false; worker identities and store counters
// persist for the coordinator's lifetime.
func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	c.mu.Lock()
	msg := statusMsg{
		Active: c.active,
		Store:  storeStatus{Hits: c.storeHits, Misses: c.storeMisses, Puts: c.storePuts},
	}
	perWorker := make(map[int]*workerStatus, len(c.retired))
	ids := make([]int, 0, len(c.retired))
	for id, retired := range c.retired {
		perWorker[id] = &workerStatus{Worker: id, Retired: retired}
		ids = append(ids, id)
	}
	for _, j := range c.jobs {
		switch j.state {
		case jWaiting, jReady:
			msg.Queued++
		case jLeased:
			msg.Leased++
			ws := perWorker[j.worker]
			if ws == nil {
				ws = &workerStatus{Worker: j.worker}
				perWorker[j.worker] = ws
				ids = append(ids, j.worker)
			}
			ws.Leases++
			if age := now.Sub(j.leasedAt).Seconds(); age > ws.OldestLeaseSec {
				ws.OldestLeaseSec = age
			}
		case jDone:
			msg.Done++
		case jAbandoned:
			msg.Abandoned++
		}
	}
	c.mu.Unlock()
	sort.Ints(ids)
	for _, id := range ids {
		msg.Workers = append(msg.Workers, *perWorker[id])
	}
	writeJSON(w, msg)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
