package par

import (
	"os"
	"os/exec"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"diverseav/internal/obs"
)

func TestForEachCoversEveryIndex(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 64, 1000} {
		hits := make([]int32, n)
		ForEach(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d executed %d times, want 1", n, i, h)
			}
		}
	}
}

func TestForEachNested(t *testing.T) {
	// Nested ForEach must complete (inner calls fall back to inline
	// execution when no worker token is free) and still cover every index.
	var total atomic.Int64
	ForEach(8, func(i int) {
		ForEach(8, func(j int) { total.Add(1) })
	})
	if got := total.Load(); got != 64 {
		t.Fatalf("nested ForEach ran %d iterations, want 64", got)
	}
}

func TestDo(t *testing.T) {
	var a, b, c atomic.Bool
	Do(func() { a.Store(true) }, func() { b.Store(true) }, func() { c.Store(true) })
	if !a.Load() || !b.Load() || !c.Load() {
		t.Fatal("Do did not run every function")
	}
}

func TestForEachDisjointWrites(t *testing.T) {
	// The pool's determinism contract: jobs writing disjoint slots
	// produce the same result regardless of scheduling.
	out := make([]int, 128)
	ForEach(len(out), func(i int) { out[i] = i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestForEachSaturation(t *testing.T) {
	// Flood the pool from many goroutines at once: every loop must
	// still cover every index exactly once, and nothing may deadlock
	// even though most loops find no free worker and run inline.
	const loops, n = 32, 200
	var wg sync.WaitGroup
	hits := make([][]int32, loops)
	for l := 0; l < loops; l++ {
		hits[l] = make([]int32, n)
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			ForEach(n, func(i int) { atomic.AddInt32(&hits[l][i], 1) })
		}(l)
	}
	wg.Wait()
	for l := 0; l < loops; l++ {
		for i, h := range hits[l] {
			if h != 1 {
				t.Fatalf("loop %d index %d executed %d times, want 1", l, i, h)
			}
		}
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	// A panicking iteration must surface on the caller, not kill a
	// pool worker goroutine (which would crash the process).
	defer func() {
		if p := recover(); p == nil {
			t.Fatal("panic did not propagate to the caller")
		} else if s, ok := p.(string); !ok || s != "boom" {
			t.Fatalf("propagated panic = %v, want \"boom\"", p)
		}
	}()
	ForEach(64, func(i int) {
		if i == 7 {
			panic("boom")
		}
	})
}

func TestForEachPanicStopsEarlyAndPoolSurvives(t *testing.T) {
	var ran atomic.Int64
	func() {
		defer func() { recover() }()
		ForEach(1000, func(i int) {
			if i == 0 {
				panic("stop")
			}
			// Slow iterations down so the panic's stop signal lands
			// before other workers can drain the whole range.
			time.Sleep(200 * time.Microsecond)
			ran.Add(1)
		})
	}()
	// Remaining iterations are abandoned once the panic lands; already
	// running ones may finish, so allow generous scheduler slack.
	if got := ran.Load(); got > 100 {
		t.Fatalf("ForEach ran %d iterations after a first-iteration panic", got)
	}
	// The pool must remain fully usable after a panic.
	hits := make([]int32, 128)
	ForEach(len(hits), func(i int) { atomic.AddInt32(&hits[i], 1) })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("after panic: index %d executed %d times, want 1", i, h)
		}
	}
}

func TestForEachPanicInline(t *testing.T) {
	// The n==1 fast path bypasses the pool; panics must still reach
	// the caller there.
	defer func() {
		if recover() == nil {
			t.Fatal("inline panic did not propagate")
		}
	}()
	ForEach(1, func(int) { panic("inline") })
}

func TestOccupancyGauge(t *testing.T) {
	// Enabling telemetry is process-sticky, which is safe in this test
	// binary (no disabled-path alloc tests live in internal/par).
	obs.Enable()
	g := obs.G("par.active")
	var maxSeen atomic.Int64
	ForEach(4*runtime.GOMAXPROCS(0), func(i int) {
		if v := g.Value(); v > maxSeen.Load() {
			maxSeen.Store(v)
		}
	})
	// Whether the loop ran inline (GOMAXPROCS=1) or fanned out, at
	// least the executing goroutine must be visible in the gauge.
	if maxSeen.Load() < 1 {
		t.Fatalf("par.active never rose above 0 during a loop")
	}
	if got := g.Value(); got != 0 {
		t.Fatalf("par.active = %d after loops finished, want 0", got)
	}
	if obs.C("par.inline").Value()+obs.C("par.recruited").Value() == 0 {
		t.Fatal("neither par.inline nor par.recruited counted anything")
	}
}

// freshChildEnv marks the re-executed test binary of
// TestFirstLoopFansOut.
const freshChildEnv = "PAR_FRESH_PROCESS_CHILD"

func TestFirstLoopFansOut(t *testing.T) {
	// The pool starts lazily inside the first ForEach, so its workers
	// have not parked yet when that loop recruits. Only a fresh process
	// shows whether they are recruited anyway: re-run this test alone in
	// a child at GOMAXPROCS=2, where the first loop's two iterations
	// rendezvous and so can only finish if they run concurrently.
	if os.Getenv(freshChildEnv) == "1" {
		arrived := make([]chan struct{}, 2)
		for i := range arrived {
			arrived[i] = make(chan struct{})
		}
		ForEach(2, func(i int) {
			close(arrived[i])
			select {
			case <-arrived[1-i]:
			case <-time.After(10 * time.Second):
				t.Errorf("iteration %d never met iteration %d: the first loop ran inline", i, 1-i)
			}
		})
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestFirstLoopFansOut$", "-test.count=1")
	cmd.Env = append(os.Environ(), freshChildEnv+"=1", "GOMAXPROCS=2")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("fresh-process child failed: %v\n%s", err, out)
	}
}

// busyChildEnv marks the re-executed test binary of
// TestBusyLoopRunsInline.
const busyChildEnv = "PAR_BUSY_POOL_CHILD"

func TestBusyLoopRunsInline(t *testing.T) {
	// A loop that finds every worker token taken (the sim's per-step
	// camera fan-out while the lab's DAG loop holds the pool) must run
	// inline without allocating and be counted as inline. A fresh child
	// at GOMAXPROCS=2 has exactly one token; a blocked two-iteration loop
	// on another goroutine holds it.
	if os.Getenv(busyChildEnv) == "1" {
		obs.Enable()
		started := make(chan struct{}, 2)
		release := make(chan struct{})
		done := make(chan struct{})
		go func() {
			ForEach(2, func(int) {
				started <- struct{}{}
				<-release
			})
			close(done)
		}()
		// Both iterations running means the helper is on the worker,
		// so its token stays taken until release.
		<-started
		<-started

		var sum int
		fn := func(i int) { sum += i }
		inline := obs.C("par.inline")
		before := inline.Value()
		const runs = 100
		allocs := testing.AllocsPerRun(runs, func() { ForEach(3, fn) })
		counted := inline.Value() - before
		close(release)
		<-done
		if allocs != 0 {
			t.Errorf("ForEach(3) with no free token allocated %.1f times per loop, want 0", allocs)
		}
		// AllocsPerRun makes one warm-up call before the measured runs.
		if counted != runs+1 {
			t.Errorf("par.inline counted %d loops, want %d", counted, runs+1)
		}
		if sum != 3*(runs+1) {
			t.Errorf("loops summed %d, want %d", sum, 3*(runs+1))
		}
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestBusyLoopRunsInline$", "-test.count=1")
	cmd.Env = append(os.Environ(), busyChildEnv+"=1", "GOMAXPROCS=2")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("busy-pool child failed: %v\n%s", err, out)
	}
}

// recruitChildEnv marks the re-executed test binary of
// TestRecruitingLoopAllocs.
const recruitChildEnv = "PAR_RECRUIT_CHILD"

func TestRecruitingLoopAllocs(t *testing.T) {
	// A loop that hands iterations to a pool worker (the sim's per-step
	// camera fan-out on an idle pool) must not allocate in the steady
	// state: its loop state is pooled and its helper bound once. A fresh
	// child at GOMAXPROCS=2 has exactly one worker; each loop waits for
	// its token so that every measured loop recruits.
	if os.Getenv(recruitChildEnv) == "1" {
		obs.Enable()
		var sum atomic.Int64
		fn := func(i int) { sum.Add(int64(i)) }
		recruited := obs.C("par.recruited")
		before := recruited.Value()
		const runs = 100
		start()
		allocs := testing.AllocsPerRun(runs, func() {
			for idle.Load() == 0 {
				runtime.Gosched()
			}
			ForEach(3, fn)
		})
		if allocs != 0 {
			t.Errorf("recruiting ForEach(3) allocated %.1f times per loop, want 0", allocs)
		}
		// AllocsPerRun makes one warm-up call before the measured runs.
		if got := recruited.Value() - before; got != runs+1 {
			t.Errorf("par.recruited counted %d helpers, want %d", got, runs+1)
		}
		if got := sum.Load(); got != 3*(runs+1) {
			t.Errorf("loops summed %d, want %d", got, 3*(runs+1))
		}
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestRecruitingLoopAllocs$", "-test.count=1")
	cmd.Env = append(os.Environ(), recruitChildEnv+"=1", "GOMAXPROCS=2")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("recruiting child failed: %v\n%s", err, out)
	}
}
