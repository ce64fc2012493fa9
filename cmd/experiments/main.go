// Command experiments regenerates every table and figure of the paper's
// evaluation and writes a combined text report. Individual experiments
// can be selected with -e; -bench shrinks campaign sizes for a quick
// pass, -full restores the paper's scale (hours of compute). With
// -cache, campaign artifacts persist to disk and later invocations (of
// any subset of experiments at the same sizes and seed) reuse them
// instead of re-simulating.
//
// With -serve addr the process additionally acts as a grid coordinator:
// campaign jobs are served to pulling worker processes (started with
// -worker addr) and only whatever the fleet abandons is computed
// locally. The report is byte-identical for any worker count, including
// zero.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"diverseav/internal/fi"
	"diverseav/internal/grid"
	"diverseav/internal/lab"
	"diverseav/internal/obs"
	"diverseav/internal/report"
)

func main() {
	var (
		exps       = flag.String("e", "all", "comma-separated experiments: "+strings.Join(report.ExperimentNames(), ",")+" (or all)")
		surface    = flag.String("surface", "", "fault surface for every campaign: "+strings.Join(fi.SurfaceNames(), ",")+" (empty = instruction surface, the default)")
		bench      = flag.Bool("bench", false, "use the small benchmark sizes")
		full       = flag.Bool("full", false, "use the paper-scale campaign sizes")
		seed       = flag.Uint64("seed", 2022, "study seed")
		cache      = flag.String("cache", "", "artifact cache directory: golden sets, campaigns and detectors are stored per spec key and reused across invocations")
		out        = flag.String("o", "", "write the report to this file as well as stdout")
		telemetry  = flag.String("telemetry", "", "write a JSONL run ledger (job spans + end-of-run metrics) to this file")
		debugAddr  = flag.String("debug-addr", "", "serve /debug/vars and /debug/pprof on this address (e.g. localhost:6060)")
		noSplice   = flag.Bool("no-splice", false, "disable reconvergence splicing (A/B switch; reports are byte-identical, only slower)")
		laneWidth  = flag.Int("lane-width", 0, "transient lane-group width: 0 = default, negative = solo runs (A/B switch; reports are byte-identical)")
		serve      = flag.String("serve", "", "grid coordinator: serve lab jobs to pulling workers on this address (e.g. 127.0.0.1:8700; :0 picks a free port) while generating the report")
		workerAddr = flag.String("worker", "", "grid worker: pull and execute jobs from the coordinator at this address until it shuts down, then exit")
		lease      = flag.Duration("lease", 60*time.Second, "grid job lease (with -serve): a worker silent this long forfeits its leased jobs to the queue")
	)
	flag.Parse()

	// Validate the name-list flags up front through the shared helper, so
	// a typo exits 2 with the valid names before any telemetry, grid or
	// simulation work starts.
	if err := report.ValidateNames("experiment", strings.Split(*exps, ","), report.ExperimentNames(), "all"); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	if err := report.ValidateNames("surface", []string{*surface}, fi.SurfaceNames()); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	}

	if *workerAddr != "" {
		// Worker mode: no report of its own — everything (including
		// whether to record telemetry) is driven by the coordinator.
		if err := grid.Work(grid.WorkerConfig{Addr: *workerAddr, Log: logf}); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		return
	}

	sess, err := obs.StartTelemetry("experiments", *telemetry, *debugAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if addr := sess.DebugAddr(); addr != "" {
		fmt.Fprintf(os.Stderr, "experiments: debug server on http://%s/debug/vars\n", addr)
	}

	o := report.DefaultOptions()
	if *bench {
		o = report.BenchOptions()
	}
	if *full {
		o.Sizes = lab.FullSizes()
	}
	o.Seed = *seed
	o.Log = os.Stderr
	o.NoSplice = *noSplice
	o.LaneWidth = *laneWidth
	o.Surface = *surface

	l := lab.New()
	if *cache != "" {
		if err := l.SetDisk(*cache); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
	if sess != nil {
		l.SetLedger(sess.Ledger)
	}
	// One progress line on stderr: in coordinator mode the grid owns it
	// (batch progress plus live lease/worker counts), otherwise the lab's
	// per-job completions drive it. Two writers would fight over the line.
	var pr *obs.Progress
	if obs.StderrIsTerminal() {
		pr = obs.NewProgress(os.Stderr, "experiments")
		if *serve == "" {
			l.SetProgress(pr.Update)
		}
	}
	o.Lab = l

	// Coordinator mode: share the lab's store (a throwaway directory when
	// -cache is off) over HTTP and hand each Require's DAG to the fleet.
	shutdown := func() {}
	if *serve != "" {
		if l.Store() == nil {
			dir, err := os.MkdirTemp("", "diverseav-grid-")
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
			defer os.RemoveAll(dir)
			if err := l.SetDisk(dir); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				os.Exit(1)
			}
		}
		coord := grid.NewCoordinator(l.Store(), grid.Config{Lease: *lease, Log: logf, Progress: pr})
		if sess != nil {
			coord.SetLedger(sess.Ledger)
		}
		ln, err := net.Listen("tcp", *serve)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		srv := &http.Server{Handler: coord.Handler()}
		go srv.Serve(ln)
		logf("grid coordinator on %s", ln.Addr())
		l.SetRemote(coord)
		shutdown = func() {
			coord.Close()
			coord.Drain(3 * time.Second) // let live workers post final ledger batches
			srv.Close()
		}
	}

	text, err := report.Generate(o, strings.Split(*exps, ","))
	pr.Done()
	shutdown()
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}

	fmt.Print(text)
	if *out != "" {
		if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
	if err := sess.Close(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
