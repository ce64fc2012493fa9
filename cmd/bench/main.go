// Command bench measures the closed-loop hot path and writes the
// results as BENCH_<date>.json, so performance regressions show up as a
// diff. It benchmarks the layers the perf work targets: the full
// simulation step (render + agents + physics + trace), a single camera
// rasterization, and the route-projection primitives.
//
// Usage:
//
//	go run ./cmd/bench [-o BENCH_2006-01-02.json] [-run campaign] [-benchtime 3x]
//	                   [-cpuprofile cpu.out] [-memprofile mem.out]
//
// -run restricts the suite to entries matching a regexp (the usual
// iterate-on-one-benchmark loop). Without -o/-out the output name is
// derived from the date and never overwrites an existing report: a
// same-day rerun writes BENCH_<date>.2.json and diffs against the
// earlier file. -cpuprofile profiles the whole benchmark suite;
// -memprofile writes a heap profile after the last benchmark (post-GC,
// so it shows retained memory, not transient garbage). Inspect with
// `go tool pprof`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"diverseav/internal/agent"
	"diverseav/internal/campaign"
	"diverseav/internal/fi"
	"diverseav/internal/geom"
	"diverseav/internal/grid"
	"diverseav/internal/lab"
	"diverseav/internal/obs"
	"diverseav/internal/report"
	"diverseav/internal/scenario"
	"diverseav/internal/sensor"
	"diverseav/internal/sim"
	"diverseav/internal/vm"
)

// Entry is one benchmark's record in the output file.
type Entry struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// StepsPerSec is set for full-simulation benchmarks only.
	StepsPerSec float64 `json:"steps_per_sec,omitempty"`
}

// Report is the full output file. The environment block (Go version,
// GOMAXPROCS, CPU count, platform, git SHA) makes a stored report
// self-describing: a regression diff against a file from a different
// machine or commit is visible as such.
type Report struct {
	Date       string  `json:"date"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	GitSHA     string  `json:"git_sha,omitempty"`
	Entries    []Entry `json:"entries"`
}

func benchSimRun(mode sim.Mode, serial, tier0 bool) (func(b *testing.B), int) {
	cfg := sim.Config{Scenario: scenario.LeadSlowdown(), Mode: mode, Seed: 3, SerialRender: serial, ForceVMTier0: tier0}
	steps := len(sim.Run(cfg).Trace.Steps)
	return func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sim.Run(cfg)
		}
	}, steps
}

// benchCampaignTransient measures the transient portion of a campaign at
// DefaultSizes — the workload checkpoint/fork execution targets. The
// golden set is precomputed (it is shared across campaigns and not what
// is being measured); the profiling pass is included, since the fork
// path pays for its checkpoint emission there. stepsOut receives the
// total trace steps the campaign produced (identical every iteration),
// so StepsPerSec is the EFFECTIVE throughput: forked runs get their
// restored prefix steps for free, which is exactly the win.
func benchCampaignTransient(opts campaign.Options, stepsOut *int) func(b *testing.B) {
	sc := scenario.LeadSlowdown()
	sizes := campaign.DefaultSizes()
	golden := campaign.Golden(sc, sim.RoundRobin, 1, 1033)
	return func(b *testing.B) {
		b.ReportAllocs()
		if opts.CheckpointEvery >= 0 {
			// Warm the checkpoint pool so the measurement reflects the
			// steady state of a long campaign (recycled snapshot buffers),
			// not the first pass's pool misses.
			campaign.RunWithOptions(sc, sim.RoundRobin, vm.GPU, fi.Transient, sizes, 33, golden, opts)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := campaign.RunWithOptions(sc, sim.RoundRobin, vm.GPU, fi.Transient, sizes, 33, golden, opts)
			total := 0
			for _, r := range c.Runs {
				total += len(r.Result.Trace.Steps)
			}
			*stepsOut = total
		}
	}
}

// benchCampaignPermanent measures a permanent campaign: a strided ISA
// sweep on the GPU (every sixth writeback opcode, as in BenchSizes),
// every run cold from step 0 with its hook scoped to one opcode. The
// golden set is precomputed, as in benchCampaignTransient.
func benchCampaignPermanent(stepsOut *int) func(b *testing.B) {
	sc := scenario.LeadSlowdown()
	sizes := campaign.DefaultSizes()
	sizes.PermStride = 6
	golden := campaign.Golden(sc, sim.RoundRobin, 1, 1033)
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := campaign.RunWithOptions(sc, sim.RoundRobin, vm.GPU, fi.Permanent, sizes, 33, golden, campaign.Options{})
			total := 0
			for _, r := range c.Runs {
				total += len(r.Result.Trace.Steps)
			}
			*stepsOut = total
		}
	}
}

// benchProfile measures one shareable profiling pass (the lab's
// ProfileSpec job): a fault-free run under the scoped fi.Profile
// observer, which stops watching each opcode once it has seen it.
func benchProfile(stepsOut *int) func(b *testing.B) {
	sc := scenario.LeadSlowdown()
	*stepsOut = len(sim.Run(sim.Config{Scenario: sc, Mode: sim.RoundRobin, Seed: 33}).Trace.Steps)
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			campaign.Profile(sc, sim.RoundRobin, 33)
		}
	}
}

// benchAgentFrame measures one full agent pipeline step (CPU marshal-in
// → GPU vision/control → CPU marshal-out, ~130k dynamic instructions)
// pinned to a VM tier. The tier-1/tier-0 ns/op ratio is the fused-kernel
// speedup with everything else (marshalling, output decode) held equal.
func benchAgentFrame(tier int) func(b *testing.B) {
	center, left, right := sensor.NewFrame(), sensor.NewFrame(), sensor.NewFrame()
	for i := range center {
		center[i] = byte(i * 31)
		left[i] = byte(i*17 + 5)
		right[i] = byte(i*13 + 9)
	}
	ag := agent.New("bench")
	ag.Machine().SetMaxTier(tier)
	in := &agent.Input{Center: center, Left: left, Right: right, Speed: 12, Dt: 0.05, SpeedLimit: 20}
	return func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			in.FrameIndex = i
			if _, err := ag.Step(in); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchCampaignSurface measures a transient campaign on a pluggable
// fault surface at DefaultSizes — the non-VM injection hot path (frame
// and output hook dispatch plus checkpoint forks, no instruction-stream
// plumbing). The golden set is precomputed like the instruction entry's,
// so the ladders differ only in the armed surface.
func benchCampaignSurface(surface string, stepsOut *int) func(b *testing.B) {
	sc := scenario.LeadSlowdown()
	sizes := campaign.DefaultSizes()
	golden := campaign.Golden(sc, sim.RoundRobin, 1, 1033)
	return func(b *testing.B) {
		b.ReportAllocs()
		// Warm the checkpoint pool, matching benchCampaignTransient.
		campaign.RunSurface(sc, surface, sim.RoundRobin, vm.GPU, fi.Transient, sizes, 33, golden, campaign.Options{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := campaign.RunSurface(sc, surface, sim.RoundRobin, vm.GPU, fi.Transient, sizes, 33, golden, campaign.Options{})
			total := 0
			for _, r := range c.Runs {
				total += len(r.Result.Trace.Steps)
			}
			*stepsOut = total
		}
	}
}

// benchRunFromCheckpoint measures a single fork: resume a run from its
// midpoint checkpoint. StepsPerSec is again effective throughput over
// the full trace (half restored, half simulated).
func benchRunFromCheckpoint(stepsOut *int) func(b *testing.B) {
	cfg := sim.Config{Scenario: scenario.LeadSlowdown(), Mode: sim.RoundRobin, Seed: 3}
	cpCfg := cfg
	cpCfg.CheckpointEvery = campaign.DefaultCheckpointEvery
	res := sim.Run(cpCfg)
	if len(res.Checkpoints) == 0 {
		panic("no checkpoints emitted")
	}
	cp := res.Checkpoints[len(res.Checkpoints)/2]
	*stepsOut = len(res.Trace.Steps)
	return func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sim.RunFrom(cp, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchStudy measures the orchestration layer end to end: the wall-clock
// of a full bench-size study (3 detectors + 18 campaigns + golden sets)
// through the lab scheduler. It is timed twice against the same lab —
// the cold pass computes every artifact, the warm pass replays the
// identical spec manifest against the populated store, so the warm/cold
// ratio is the memoization win and the cold number tracks scheduler
// overhead plus raw simulation throughput. StepsPerSec (cold only) is
// over the study's injection-run traces.
func benchStudy(sess *obs.Session) (cold, warm time.Duration, steps int, stats lab.Stats) {
	o := report.BenchOptions()
	l := lab.New()
	if sess != nil {
		l.SetLedger(sess.Ledger)
	}
	o.Lab = l
	start := time.Now()
	study := report.NewStudy(o)
	cold = time.Since(start)
	start = time.Now()
	report.NewStudy(o)
	warm = time.Since(start)
	for _, camps := range [][]*campaign.Campaign{study.RR, study.FD, study.Single} {
		for _, c := range camps {
			for _, r := range c.Runs {
				steps += len(r.Result.Trace.Steps)
			}
		}
	}
	return cold, warm, steps, l.Stats()
}

// benchGridStudy measures the same bench-size study executed through
// the distributed fabric: an in-process coordinator over a throwaway
// disk store, two loopback workers, and a local lab that hands each
// Require DAG to the fleet. Against study/bench-cold this entry is the
// fabric's total overhead — artifact encode/decode, HTTP transfer, job
// leasing — at the smallest realistic fleet size, tracked from day one
// so a protocol regression shows up in the BENCH diff.
func benchGridStudy(sess *obs.Session) (elapsed time.Duration, steps int, err error) {
	dir, err := os.MkdirTemp("", "diverseav-bench-grid-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	store, err := lab.NewDiskStore(dir)
	if err != nil {
		return 0, 0, err
	}

	coord := grid.NewCoordinator(store, grid.Config{})
	if sess != nil {
		coord.SetLedger(sess.Ledger)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	srv := &http.Server{Handler: coord.Handler()}
	go srv.Serve(ln)
	defer srv.Close()

	var workers sync.WaitGroup
	for i := 0; i < 2; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			// A short idle poll so dependency stalls cost microseconds,
			// not scheduler quanta; a busy queue never sleeps anyway.
			grid.Work(grid.WorkerConfig{Addr: ln.Addr().String(), Poll: 10 * time.Millisecond})
		}()
	}

	o := report.BenchOptions()
	l := lab.New()
	l.SetStore(store)
	l.SetRemote(coord)
	if sess != nil {
		l.SetLedger(sess.Ledger)
	}
	o.Lab = l
	start := time.Now()
	study := report.NewStudy(o)
	elapsed = time.Since(start)
	coord.Close()
	coord.Drain(2 * time.Second)
	srv.Close()
	workers.Wait()
	for _, camps := range [][]*campaign.Campaign{study.RR, study.FD, study.Single} {
		for _, c := range camps {
			for _, r := range c.Runs {
				steps += len(r.Result.Trace.Steps)
			}
		}
	}
	return elapsed, steps, nil
}

// benchScene builds a representative render scene: curved route, two
// obstacles, one stop bar, nominal sensor noise.
func benchScene() *sensor.Scene {
	pts := make([]geom.Vec2, 0, 128)
	for i := 0; i < 128; i++ {
		s := float64(i) * 2
		pts = append(pts, geom.Vec2{X: s, Y: 8 * math.Sin(s/40)})
	}
	route, err := geom.NewPolyline(pts)
	if err != nil {
		panic(err)
	}
	st, _ := route.Project(geom.Vec2{X: 30, Y: 0})
	pos := route.At(st)
	_, yaw := route.PoseAt(st)
	return &sensor.Scene{
		EgoPose:           geom.Pose{Pos: pos, Yaw: yaw},
		Route:             route,
		RouteStation:      st,
		RouteCenterOffset: 1.75,
		RoadHalfWidth:     3.5,
		LaneMarkOffsets:   []float64{-3.5, 0, 3.5},
		Obstacles: []sensor.RenderObstacle{
			{Pose: geom.Pose{Pos: route.At(st + 18)}, HalfL: 2.2, HalfW: 0.9, Braking: true},
			{Pose: geom.Pose{Pos: route.At(st + 35)}, HalfL: 2.2, HalfW: 0.9},
		},
		StopBars:  []sensor.StopBar{{Dist: 45}},
		Step:      7,
		NoiseSeed: 11,
		NoiseStd:  2.0,
	}
}

func benchRender(b *testing.B) {
	sc := benchScene()
	frame := sensor.NewFrame()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sensor.Render(sensor.CamCenter, sc, frame)
	}
}

func projectLine() *geom.Polyline {
	pts := make([]geom.Vec2, 0, 512)
	for i := 0; i < 512; i++ {
		s := float64(i) * 1.5
		pts = append(pts, geom.Vec2{X: s, Y: 10 * math.Cos(s/60)})
	}
	p, err := geom.NewPolyline(pts)
	if err != nil {
		panic(err)
	}
	return p
}

// benchProject measures the O(n) full-scan projection a vehicle
// controller would otherwise call every step.
func benchProject(b *testing.B) {
	p := projectLine()
	q := geom.Vec2{X: 400, Y: 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Project(q)
	}
}

// benchProjectNear measures the windowed projection used by the hot
// loop, walking the query point like a vehicle does.
func benchProjectNear(b *testing.B) {
	p := projectLine()
	b.ReportAllocs()
	b.ResetTimer()
	hint := 0.0
	for i := 0; i < b.N; i++ {
		q := p.At(hint).Add(geom.Vec2{Y: 1.2})
		hint, _ = p.ProjectNear(q, hint, 40)
		hint += 0.4
		if hint > p.Length()-1 {
			hint = 0
		}
	}
}

func main() {
	testing.Init() // register -test.* so testing.Benchmark works under `go run`
	out := flag.String("o", "", "output path (default BENCH_<date>.json, suffixed .2, .3... if taken)")
	outAlias := flag.String("out", "", "alias for -o")
	runFilter := flag.String("run", "", "only run benchmarks whose name matches this regexp")
	benchtime := flag.String("benchtime", "", "benchtime for the benchmarks, e.g. 3x (default: testing's 1s)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole suite to this file")
	memprofile := flag.String("memprofile", "", "write a post-suite heap profile to this file")
	study := flag.Bool("study", true, "include the bench-size study wall-clock entries (cold vs warm lab cache, plus the 2-worker grid run; adds minutes)")
	telemetry := flag.String("telemetry", "", "write a JSONL run ledger to this file (note: enabling telemetry perturbs the measured hot paths)")
	debugAddr := flag.String("debug-addr", "", "serve /debug/vars and /debug/pprof on this address")
	flag.Parse()

	sess, err := obs.StartTelemetry("bench", *telemetry, *debugAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if addr := sess.DebugAddr(); addr != "" {
		fmt.Fprintf(os.Stderr, "bench: debug server on http://%s/debug/vars\n", addr)
	}
	if *benchtime != "" {
		// testing.Benchmark honors the -test.benchtime flag.
		if err := flag.CommandLine.Set("test.benchtime", *benchtime); err != nil {
			fmt.Fprintln(os.Stderr, "benchtime:", err)
			os.Exit(2)
		}
	}

	var match *regexp.Regexp
	if *runFilter != "" {
		re, err := regexp.Compile(*runFilter)
		if err != nil {
			fmt.Fprintln(os.Stderr, "run:", err)
			os.Exit(2)
		}
		match = re
	}

	date := time.Now().Format("2006-01-02")
	path := *out
	if *outAlias != "" {
		path = *outAlias
	}
	if path == "" {
		// Never silently overwrite an earlier same-day report: suffix
		// reruns, so the day's history stays diffable.
		path = fmt.Sprintf("BENCH_%s.json", date)
		for n := 2; ; n++ {
			if _, err := os.Stat(path); os.IsNotExist(err) {
				break
			}
			path = fmt.Sprintf("BENCH_%s.%d.json", date, n)
		}
	}
	prev, prevPath := loadPreviousReport()

	rep := Report{
		Date:       date,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GitSHA:     obs.GitSHA(),
	}

	addEntry := func(e Entry) {
		rep.Entries = append(rep.Entries, e)
		if e.StepsPerSec > 0 {
			fmt.Printf("%-28s %12.0f ns/op %10.0f steps/s %8d allocs/op %10d B/op\n",
				e.Name, e.NsPerOp, e.StepsPerSec, e.AllocsPerOp, e.BytesPerOp)
		} else {
			fmt.Printf("%-28s %12.0f ns/op %8d allocs/op %10d B/op\n",
				e.Name, e.NsPerOp, e.AllocsPerOp, e.BytesPerOp)
		}
	}
	add := func(name string, r testing.BenchmarkResult, steps int) {
		e := Entry{
			Name:        name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if steps > 0 {
			e.StepsPerSec = float64(steps) * float64(r.N) / r.T.Seconds()
		}
		addEntry(e)
	}

	fmt.Printf("diverseav bench: %s, GOMAXPROCS=%d\n", rep.GoVersion, rep.GOMAXPROCS)

	var cpuF *os.File
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		cpuF = f
	}

	// The suite as named cases, so -run can select a subset. Each case
	// builds its fixtures only when it actually runs. The campaign
	// ladder isolates each optimization layer: cold (no sharing) →
	// fork (checkpoint restore, solo) → splice (solo, + reconvergence)
	// → batch (default: lockstep lane groups on top of both). All four
	// produce byte-identical campaigns.
	simCase := func(mode sim.Mode, serial, tier0 bool) func() (testing.BenchmarkResult, int) {
		return func() (testing.BenchmarkResult, int) {
			fn, steps := benchSimRun(mode, serial, tier0)
			return testing.Benchmark(fn), steps
		}
	}
	campCase := func(opts campaign.Options) func() (testing.BenchmarkResult, int) {
		return func() (testing.BenchmarkResult, int) {
			var steps int
			r := testing.Benchmark(benchCampaignTransient(opts, &steps))
			return r, steps
		}
	}
	surfCase := func(surface string) func() (testing.BenchmarkResult, int) {
		return func() (testing.BenchmarkResult, int) {
			var steps int
			r := testing.Benchmark(benchCampaignSurface(surface, &steps))
			return r, steps
		}
	}
	stepsCase := func(bench func(*int) func(*testing.B)) func() (testing.BenchmarkResult, int) {
		return func() (testing.BenchmarkResult, int) {
			var steps int
			r := testing.Benchmark(bench(&steps))
			return r, steps
		}
	}
	noSteps := func(fn func(b *testing.B)) func() (testing.BenchmarkResult, int) {
		return func() (testing.BenchmarkResult, int) { return testing.Benchmark(fn), 0 }
	}
	cases := []struct {
		name string
		run  func() (testing.BenchmarkResult, int)
	}{
		{"sim-run/roundrobin", simCase(sim.RoundRobin, false, false)},
		{"sim-run/roundrobin-serial", simCase(sim.RoundRobin, true, false)},
		{"sim-run/duplicate", simCase(sim.Duplicate, false, false)},
		{"sim-run/duplicate-tier0", simCase(sim.Duplicate, false, true)},
		{"vm/agent-frame-tier1", noSteps(benchAgentFrame(1))},
		{"vm/agent-frame-tier0", noSteps(benchAgentFrame(0))},
		{"sim-run-from-checkpoint", stepsCase(benchRunFromCheckpoint)},
		{"campaign/transient-cold", campCase(campaign.Options{CheckpointEvery: -1})},
		{"campaign/transient-fork", campCase(campaign.Options{DisableSplice: true, LaneWidth: -1})},
		{"campaign/transient-splice", campCase(campaign.Options{LaneWidth: -1})},
		{"campaign/transient-batch", campCase(campaign.Options{})},
		{"campaign/transient-traced", campCase(campaign.Options{Propagation: true})},
		{"campaign/permanent", stepsCase(benchCampaignPermanent)},
		{"campaign/profile", stepsCase(benchProfile)},
		{"campaign/sensorfault", surfCase(fi.SurfaceSensor)},
		{"campaign/hallucinate", surfCase(fi.SurfaceHallucinate)},
		{"render/center-camera", noSteps(benchRender)},
		{"geom/project-full", noSteps(benchProject)},
		{"geom/project-near", noSteps(benchProjectNear)},
	}
	for _, c := range cases {
		if match != nil && !match.MatchString(c.name) {
			continue
		}
		r, steps := c.run()
		add(c.name, r, steps)
	}
	if *study && (match == nil || match.MatchString("study/bench-cold")) {
		cold, warm, studySteps, st := benchStudy(sess)
		addEntry(Entry{
			Name:        "study/bench-cold",
			Iterations:  1,
			NsPerOp:     float64(cold.Nanoseconds()),
			StepsPerSec: float64(studySteps) / cold.Seconds(),
		})
		addEntry(Entry{
			Name:       "study/bench-warm",
			Iterations: 1,
			NsPerOp:    float64(warm.Nanoseconds()),
		})
		fmt.Printf("%-28s computed=%d artifacts, warm pass: %d memory hits, 0 recomputes\n",
			"  (study cache)", st.Computed, st.MemoryHits)
	}
	if *study && (match == nil || match.MatchString("grid/bench-2workers")) {
		elapsed, gridSteps, err := benchGridStudy(sess)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: grid study:", err)
			os.Exit(1)
		}
		addEntry(Entry{
			Name:        "grid/bench-2workers",
			Iterations:  1,
			NsPerOp:     float64(elapsed.Nanoseconds()),
			StepsPerSec: float64(gridSteps) / elapsed.Seconds(),
		})
	}

	if cpuF != nil {
		pprof.StopCPUProfile()
		cpuF.Close()
		fmt.Println("wrote CPU profile", *cpuprofile)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Println("wrote heap profile", *memprofile)
	}

	diffReports(prev, prevPath, rep, match != nil)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "marshal:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "write:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", path)
	if err := sess.Close(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// loadPreviousReport finds the newest BENCH_*.json in the working
// directory (by the date in its name, then the same-day rerun suffix)
// and parses it, so a fresh run prints a regression/improvement diff.
// Returns nil when no previous report exists or it cannot be parsed.
func loadPreviousReport() (*Report, string) {
	matches, _ := filepath.Glob("BENCH_*.json")
	if len(matches) == 0 {
		return nil, ""
	}
	// Plain sort.Strings would order BENCH_d.2.json before BENCH_d.json
	// ('.' < 'j'), inverting same-day rerun order; compare the parsed
	// (date, rerun) key instead.
	sort.Slice(matches, func(i, j int) bool {
		di, ni := benchFileKey(matches[i])
		dj, nj := benchFileKey(matches[j])
		if di != dj {
			return di < dj
		}
		return ni < nj
	})
	path := matches[len(matches)-1]
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, ""
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, ""
	}
	return &rep, path
}

// benchFileKey parses BENCH_<date>[.N].json into its ordering key: the
// date string and the same-day rerun number (1 for the unsuffixed file).
func benchFileKey(path string) (string, int) {
	base := strings.TrimSuffix(filepath.Base(path), ".json")
	base = strings.TrimPrefix(base, "BENCH_")
	if i := strings.IndexByte(base, '.'); i >= 0 {
		if n, err := strconv.Atoi(base[i+1:]); err == nil {
			return base[:i], n
		}
	}
	return base, 1
}

// diffReports prints the change versus the previous report, entry by
// entry: steps/s for full-simulation entries (higher is better), ns/op
// for the rest (lower is better). One-sided entries are tolerated in
// both directions — a benchmark added since the previous report prints
// as new, one dropped from the suite prints as removed — and an entry
// whose metric kind changed (steps/s present on only one side) falls
// back to the ns/op comparison both sides always carry. partial marks a
// -run-filtered suite: entries the filter skipped are not "removed".
func diffReports(prev *Report, prevPath string, cur Report, partial bool) {
	if prev == nil {
		return
	}
	old := make(map[string]Entry, len(prev.Entries))
	for _, e := range prev.Entries {
		old[e.Name] = e
	}
	fmt.Printf("\nvs %s:\n", prevPath)
	for _, e := range cur.Entries {
		p, ok := old[e.Name]
		if !ok {
			fmt.Printf("  %-28s (new entry)\n", e.Name)
			continue
		}
		delete(old, e.Name)
		switch {
		case e.StepsPerSec > 0 && p.StepsPerSec > 0:
			fmt.Printf("  %-28s %12.0f -> %12.0f steps/s  (%+.1f%%)\n",
				e.Name, p.StepsPerSec, e.StepsPerSec, 100*(e.StepsPerSec/p.StepsPerSec-1))
		case p.NsPerOp > 0 && e.NsPerOp > 0:
			fmt.Printf("  %-28s %12.0f -> %12.0f ns/op    (%+.1f%%)\n",
				e.Name, p.NsPerOp, e.NsPerOp, 100*(e.NsPerOp/p.NsPerOp-1))
		default:
			fmt.Printf("  %-28s (not comparable)\n", e.Name)
		}
	}
	// Entries only the previous report had: report them instead of
	// silently dropping them, so a renamed or retired benchmark is
	// visible in the diff.
	if partial {
		return
	}
	removed := make([]string, 0, len(old))
	for name := range old {
		removed = append(removed, name)
	}
	sort.Strings(removed)
	for _, name := range removed {
		fmt.Printf("  %-28s (removed; was %.0f ns/op)\n", name, old[name].NsPerOp)
	}
}
