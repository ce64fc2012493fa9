// Package par is the shared bounded worker pool behind every parallel
// loop in the reproduction: the lab's job DAG, campaign fault-injection
// sweeps, golden-run batches, detector training, and the per-step camera
// fan-out in the sim hot loop.
//
// A single process-wide pool of GOMAXPROCS-1 persistent workers backs
// all callers. Admission runs on free-worker tokens: the pool holds one
// token per worker, a loop takes a token before it hands an iteration
// runner to the pool, and the worker returns the token once that runner
// has finished. A worker that has started but not yet parked on the
// task channel can therefore be recruited, so the first loop of a fresh
// process fans out like any later one. When no token is left, the rest
// of the loop runs on the caller's goroutine, so nested parallelism (a
// campaign job that itself renders three cameras concurrently) degrades
// to inline execution instead of oversubscribing the machine: running
// goroutines stay at or below GOMAXPROCS. Results are deterministic as
// long as jobs write to disjoint slots, which every caller in this repo
// does.
//
// When telemetry is on (obs.Enable) the pool reports occupancy through
// the par.active gauge and counts recruited helpers and inline loops;
// when it is off each loop pays a single atomic load.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"

	"diverseav/internal/obs"
)

var (
	startOnce sync.Once
	// taskCh is buffered to poolWorkers. Every send is backed by a
	// token taken from idle, so a send never blocks and every queued
	// task has a worker that will pick it up without first finishing
	// another one.
	taskCh chan func()
	// idle counts free-worker tokens: poolWorkers minus the tasks that
	// are queued or running.
	idle atomic.Int64
	// poolWorkers is the number of background workers started (0 on a
	// single-core machine, where every loop runs inline).
	poolWorkers int
)

func start() {
	startOnce.Do(func() {
		n := runtime.GOMAXPROCS(0) - 1 // the caller's goroutine is a worker too
		if n < 0 {
			n = 0
		}
		poolWorkers = n
		idle.Store(int64(n))
		taskCh = make(chan func(), n)
		for i := 0; i < n; i++ {
			go func() {
				for f := range taskCh {
					f()
					idle.Add(1)
				}
			}()
		}
	})
}

// instruments caches the pool's obs handles. It returns nil until
// telemetry is enabled, so the disabled path costs one atomic load.
type poolInstruments struct {
	active    *obs.Gauge   // goroutines currently executing ForEach work
	recruited *obs.Counter // helpers handed to free pool workers
	inline    *obs.Counter // loops that ran entirely on the caller
}

var (
	instOnce sync.Once
	inst     poolInstruments
)

func instruments() *poolInstruments {
	if !obs.Enabled() {
		return nil
	}
	instOnce.Do(func() {
		inst.active = obs.G("par.active")
		inst.recruited = obs.C("par.recruited")
		inst.inline = obs.C("par.inline")
	})
	return &inst
}

// Workers returns the number of goroutines (including the caller) that
// can make progress concurrently through this pool.
func Workers() int {
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(i) for every i in [0, n). Iterations are distributed
// over free pool workers plus the calling goroutine; with no free
// worker token (n == 1, GOMAXPROCS=1, or a nested call while every
// worker is busy) the whole loop runs inline on the caller, with no
// closure or scheduling overhead. ForEach returns after every iteration
// has completed.
//
// If fn panics, ForEach stops handing out new iterations, waits for
// iterations already running to finish, and re-raises the first panic
// on the calling goroutine. Pool workers survive to serve later loops.
func ForEach(n int, fn func(int)) {
	if n <= 0 {
		return
	}
	in := instruments()
	if n == 1 || !takeToken() {
		// Allocation-free, which keeps the sim's per-step camera
		// fan-out free of garbage whenever no worker is free.
		if in != nil {
			in.inline.Inc()
			in.active.Add(1)
			defer in.active.Add(-1)
		}
		for i := range n {
			fn(i)
		}
		return
	}
	l := loops.Get().(*loop)
	l.n, l.fn, l.in = int64(n), fn, in
	// One token is already held; offer up to n-1 helpers in all.
	for offered := 1; ; offered++ {
		l.wg.Add(1)
		taskCh <- l.helper // never blocks: the token reserves a buffer slot
		if in != nil {
			in.recruited.Inc()
		}
		if offered == n-1 || !takeToken() {
			break
		}
	}
	l.work()
	l.wg.Wait()
	p := l.panicVal
	l.next.Store(0)
	l.panicked.Store(false)
	l.fn, l.in, l.panicVal = nil, nil, nil
	loops.Put(l)
	if p != nil {
		panic(p)
	}
}

// loop is the shared state of one recruiting ForEach call. It is pooled,
// and its helper method value is bound once when the loop is first
// allocated, so a loop that hands iterations to pool workers allocates
// nothing in the steady state (the sim's per-step camera fan-out).
type loop struct {
	next     atomic.Int64 // the next iteration to claim
	n        int64
	fn       func(int)
	in       *poolInstruments
	wg       sync.WaitGroup // recruited helpers still running
	panicked atomic.Bool
	panicVal any    // the first panic; read after wg.Wait
	helper   func() // l.help, handed to pool workers
}

var loops = sync.Pool{New: func() any {
	l := &loop{}
	l.helper = l.help
	return l
}}

// help runs iterations on a pool worker. The loop may be recycled as
// soon as wg.Done returns, so help touches nothing after it.
func (l *loop) help() {
	l.work()
	l.wg.Done()
}

// work claims and runs iterations until none are left. A panicking
// iteration records the first panic and parks the cursor past the end
// so no goroutine starts another iteration.
func (l *loop) work() {
	if l.in != nil {
		l.in.active.Add(1)
		defer l.in.active.Add(-1)
	}
	defer func() {
		if p := recover(); p != nil {
			if l.panicked.CompareAndSwap(false, true) {
				l.panicVal = p
			}
			l.next.Store(l.n)
		}
	}()
	for {
		i := l.next.Add(1) - 1
		if i >= l.n {
			return
		}
		l.fn(int(i))
	}
}

// takeToken claims one free-worker token, starting the pool on first
// use, and reports false when every pool worker is already queued or
// running a task (always, on a single-core machine).
func takeToken() bool {
	start()
	for {
		v := idle.Load()
		if v <= 0 {
			return false
		}
		if idle.CompareAndSwap(v, v-1) {
			return true
		}
	}
}

// Do runs the given functions, concurrently when free workers are
// available, and returns when all have completed.
func Do(fns ...func()) {
	ForEach(len(fns), func(i int) { fns[i]() })
}
