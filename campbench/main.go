// Command campbench is the repository's benchmark: a closed loop with
// one client that submits a fault-injection workload to the experiment
// lab, waits for it, checks every injection run against a recorded
// reference, and reports end-to-end metrics (or, with -trace 1,
// per-layer metrics). See README.md for the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash campbench/run.sh --workload transient --seed 1 --seconds 32 --trace 0
//
// Each timed iteration runs in a fresh child process with GOMAXPROCS=2;
// the parent repeats iterations until the time budget is spent, reports
// medians, and prints one JSON result object as its last line.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"diverseav/internal/lab"
	"diverseav/internal/obs"
)

// gomaxprocs is the worker count every child runs with.
const gomaxprocs = 2

// childEnv marks a child process; its value is the child's role.
const childEnv = "CAMPBENCH_CHILD"

// Child roles.
const (
	roleSetup  = "setup"  // prepare the iteration, report the set-up time, exit
	roleTimed  = "timed"  // one untraced timed iteration
	roleTraced = "traced" // one traced iteration plus layer probes
)

const (
	// runLimit is a hard deadline for the whole run, kept under 180 s: a
	// child still running then is killed.
	runLimit     = 170 * time.Second
	setupSamples = 15
)

type options struct {
	workload string
	size     string
	seed     uint64
	seconds  float64
	trace    bool
	record   string
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("campbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: "+workloadNames())
	fs.StringVar(&o.size, "size", "bench", "workload size: bench or toy")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 32, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	fs.StringVar(&o.record, "record", "", "record the reference digests of the seed's input set into this file, then exit")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.trace = *trace == 1
	w, ok := findWorkload(o.workload)
	if !ok {
		return o, fmt.Errorf("unknown workload %q (valid: %s)", o.workload, workloadNames())
	}
	if _, ok := w.sizes[o.size]; !ok {
		return o, fmt.Errorf("unknown size %q (valid: bench, toy)", o.size)
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "campbench:", err)
		os.Exit(2)
	}
	if role := os.Getenv(childEnv); role != "" {
		os.Exit(childMain(o, role, os.Stdout))
	}
	if o.record != "" {
		w, _ := findWorkload(o.workload)
		if err := record(o.record, w, o.size, o.seed); err != nil {
			fmt.Fprintln(os.Stderr, "campbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := parentMain(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "campbench:", err)
		os.Exit(1)
	}
}

// iteration is one child's report, printed as its last stdout line.
type iteration struct {
	// ReadyNs is the wall clock (Unix ns) at which the child reached its
	// first lab call; the parent subtracts its spawn time to get setup_s.
	ReadyNs   int64   `json:"ready_ns"`
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	RSSMB     float64 `json:"peak_rss_mb"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Err       string  `json:"error,omitempty"`
	// Traced iterations only.
	Layers  map[string]float64 `json:"layers,omitempty"`
	Timings map[string]timing  `json:"timings,omitempty"`

	setupS float64 // filled in by the parent
}

// rusage returns the process's user plus system CPU time in seconds
// and its peak resident set in MB.
func rusage() (cpu, rssMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN(), math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds(), float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// childMain runs one iteration and prints its report.
func childMain(o options, role string, stdout io.Writer) int {
	w, _ := findWorkload(o.workload)
	in := newInput(w, w.sizes[o.size], o.seed)
	var led *obs.Ledger
	var ledBuf bytes.Buffer
	if role == roleTraced {
		obs.Enable()
		led = obs.NewLedger(&ledBuf)
	}
	it := iteration{ReadyNs: time.Now().UnixNano()}
	l := in.newLab()
	l.SetLedger(led)
	if role == roleSetup {
		return emit(stdout, it)
	}

	refs, err := loadReferences()
	if err != nil {
		it.Err = err.Error()
		return emit(stdout, it)
	}
	ref := refs[refKey(o.workload, o.size, in.variant)]

	cpu0, _ := rusage()
	start := time.Now()
	out, err := runGuarded(in, l, led)
	it.WallS = time.Since(start).Seconds()
	cpu1, rss := rusage()
	it.CPUS, it.RSSMB = cpu1-cpu0, rss
	if err != nil {
		it.Err = err.Error()
		it.Attempted = expectedRuns(o.workload, ref)
		it.Failed = it.Attempted
		return emit(stdout, it)
	}
	it.Attempted, it.Failed = check(out, ref)
	if len(ref) == 0 {
		it.Err = "no reference recorded for " + refKey(o.workload, o.size, in.variant)
	}
	if role == roleTraced {
		snap := obs.Default().Snapshot()
		if err := led.Flush(); err != nil {
			it.Err = err.Error()
			return emit(stdout, it)
		}
		recs, err := obs.ReadLedger(&ledBuf)
		if err != nil {
			it.Err = err.Error()
			return emit(stdout, it)
		}
		var spans []obs.Span
		for _, r := range recs {
			if r.Span != nil {
				spans = append(spans, *r.Span)
			}
		}
		it.Layers = counterLayers(snap, spans, out, it.WallS, it.CPUS)
		it.Timings = probeTimings(in, l)
	}
	return emit(stdout, it)
}

// runGuarded runs the timed section, turning a panic into an error so
// the iteration still reports every run it attempted as failed.
func runGuarded(in *input, l *lab.Lab, led *obs.Ledger) (out *outcome, err error) {
	defer func() {
		if p := recover(); p != nil {
			out, err = nil, fmt.Errorf("panic: %v", p)
		}
	}()
	return in.execute(l, led)
}

func emit(w io.Writer, it iteration) int {
	data, err := json.Marshal(it)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campbench:", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", data)
	return 0
}

// spawn runs one child iteration and returns its report. A child that
// fails to start, crashes or prints no report yields an error.
func spawn(ctx context.Context, o options, role string, seed uint64) (iteration, error) {
	exe, err := os.Executable()
	if err != nil {
		return iteration{}, err
	}
	cmd := exec.CommandContext(ctx, exe,
		"-workload", o.workload, "-size", o.size, "-seed", strconv.FormatUint(seed, 10))
	cmd.Env = append(os.Environ(), childEnv+"="+role, "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	spawned := time.Now()
	var it iteration
	if err := cmd.Run(); err != nil {
		return it, fmt.Errorf("%s child: %w", role, err)
	}
	if err := json.Unmarshal(lastLine(stdout.Bytes()), &it); err != nil {
		return it, fmt.Errorf("%s child printed no report: %w", role, err)
	}
	it.setupS = time.Unix(0, it.ReadyNs).Sub(spawned).Seconds()
	return it, nil
}

func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

// result is the benchmark's final line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// parentMain runs the set-up probes and as many timed iterations as fit
// in the budget, then prints the summary table and the result line.
func parentMain(o options, stdout io.Writer) error {
	start := time.Now()
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(runLimit))
	defer cancel()
	budget := time.Duration(o.seconds * float64(time.Second))

	refs, err := loadReferences()
	if err != nil {
		return err
	}
	var setups []float64
	for i := 0; i < setupSamples; i++ {
		it, err := spawn(ctx, o, roleSetup, o.seed)
		if err != nil {
			return err
		}
		setups = append(setups, it.setupS)
	}

	// Iteration n runs the input set of seed+n, so a run's medians span
	// several input sets; with -trace 1, untraced and traced iterations
	// alternate, each pair on one input set. A new iteration starts only
	// while one of median length still fits in the budget, and a run
	// visits each input set at most once: where a whole cycle of the
	// catalogue fits, every seed measures the same inputs.
	var timed, traced []iteration
	var errs []string
	var durations []float64
	attempted, failed := 0, 0
	perSet := 1
	if o.trace {
		perSet = 2
	}
	for n := 0; n < variants*perSet; n++ {
		role, seed := roleTimed, o.seed+uint64(n)
		if o.trace {
			seed = o.seed + uint64(n/2)
			if n%2 == 1 {
				role = roleTraced
			}
		}
		done := len(timed) > 0 && (!o.trace || len(traced) > 0)
		if ctx.Err() != nil || done && time.Since(start).Seconds()+median(durations) > budget.Seconds() {
			break
		}
		t0 := time.Now()
		it, err := spawn(ctx, o, role, seed)
		durations = append(durations, time.Since(t0).Seconds())
		switch {
		case err != nil:
			// A child that crashed or was killed reported nothing: every
			// run its input set holds counts as attempted and failed.
			errs = append(errs, err.Error())
			n := expectedRuns(o.workload, refs[refKey(o.workload, o.size, int(seed%variants))])
			it = iteration{Attempted: n, Failed: n}
		case it.Err != "":
			errs = append(errs, it.Err)
		default:
			setups = append(setups, it.setupS)
		}
		if role == roleTraced {
			traced = append(traced, it)
		} else {
			timed = append(timed, it)
		}
		attempted += it.Attempted
		failed += it.Failed
	}

	res := result{Correct: len(errs) == 0 && failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	for _, e := range errs {
		fmt.Fprintln(os.Stderr, "campbench:", e)
	}
	failedFrac := make([]float64, len(timed))
	for i, it := range timed {
		failedFrac[i] = frac(float64(it.Failed), float64(it.Attempted))
	}
	// Only iterations that completed have timings.
	timed, traced = completed(timed), completed(traced)

	col := func(its []iteration, f func(iteration) float64) []float64 {
		xs := make([]float64, len(its))
		for i, it := range its {
			xs[i] = f(it)
		}
		return xs
	}
	e2e := map[string][]float64{
		"setup_s":          setups,
		"wall_s":           col(timed, func(it iteration) float64 { return it.WallS }),
		"injections_per_s": col(timed, func(it iteration) float64 { return float64(it.Attempted-it.Failed) / it.WallS }),
		"cpu_s":            col(timed, func(it iteration) float64 { return it.CPUS }),
		"peak_rss_mb":      col(timed, func(it iteration) float64 { return it.RSSMB }),
		"failed_frac":      failedFrac,
	}
	fmt.Fprintf(stdout, "campbench %s seed %d size %s: GOMAXPROCS=%d nproc=%d, %d timed + %d traced iterations in %.1f s\n",
		o.workload, o.seed, o.size, gomaxprocs, runtime.NumCPU(), len(timed), len(traced), time.Since(start).Seconds())
	fmt.Fprintf(stdout, "%-28s %14s %14s %14s %4s  %s\n", "metric", "median", "q1", "q3", "n", "unit")
	for _, m := range append(endToEnd, metric{"failed_frac", "ratio"}) {
		xs := e2e[m.name]
		q1, q3 := quartiles(xs)
		fmt.Fprintf(stdout, "%-28s %14.6g %14.6g %14.6g %4d  %s\n", m.name, median(xs), q1, q3, len(xs), m.unit)
	}
	if !o.trace {
		for _, m := range endToEnd {
			res.Metrics[m.name] = value{finite(median(e2e[m.name])), m.unit}
		}
	} else {
		layers := traceLayers(traced, e2e["wall_s"])
		fmt.Fprintf(stdout, "%-28s %14s %14s %4s  %s\n", "per-layer metric", "median", "tail", "n", "unit")
		for _, m := range perLayer {
			v := layers[m.name]
			res.Metrics[m.name] = value{finite(v.Median), m.unit}
			tail := ""
			if v.TailPct > 0 {
				tail = fmt.Sprintf("p%g=%.6g", v.TailPct, v.Tail)
			}
			fmt.Fprintf(stdout, "%-28s %14.6g %14s %4d  %s\n", m.name, v.Median, tail, v.N, m.unit)
		}
	}
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", data)
	if len(timed) == 0 || (o.trace && len(traced) == 0) {
		return errors.New("no iteration completed")
	}
	return nil
}

func completed(its []iteration) []iteration {
	var ok []iteration
	for _, it := range its {
		if it.Err == "" && it.WallS > 0 {
			ok = append(ok, it)
		}
	}
	return ok
}

// finite maps the NaN of an empty sample to 0, which JSON can carry.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// traceLayers merges the traced iterations' figures: the median over
// iterations of each counter-derived figure and of each timing's
// summary, plus the tracing overhead against the untraced walls.
func traceLayers(traced []iteration, untracedWalls []float64) map[string]timing {
	out := map[string]timing{}
	names := map[string]bool{}
	for _, it := range traced {
		for k := range it.Layers {
			names[k] = true
		}
		for k := range it.Timings {
			names[k] = true
		}
	}
	for k := range names {
		var med, tail, pct, n []float64
		for _, it := range traced {
			if t, ok := it.Timings[k]; ok {
				med, tail, pct, n = append(med, t.Median), append(tail, t.Tail), append(pct, t.TailPct), append(n, float64(t.N))
			} else if v, ok := it.Layers[k]; ok {
				med = append(med, v)
			}
		}
		// n is the sample count of a timing, else the iterations merged.
		t := timing{Median: median(med), N: len(med)}
		if len(n) > 0 {
			t.N, t.Tail, t.TailPct = int(median(n)), median(tail), median(pct)
		}
		out[k] = t
	}
	untraced := median(untracedWalls)
	tracedWall := out["traced.wall_s"].Median
	out["untraced.wall_s"] = timing{Median: untraced, N: len(untracedWalls)}
	out["obs.traced_overhead_frac"] = timing{Median: frac(tracedWall, untraced) - 1, N: len(traced)}
	return out
}
