// Command ledgerstats reads the JSONL telemetry ledgers that the
// -telemetry flag of the other drivers writes. It first validates every
// file given; if any is invalid it names each bad file on stderr, exits
// 1 and prints nothing else, so CI can gate on the ledger schema. For
// each valid file it prints a roll-up: the writers' meta, records per
// type, spans per phase and cache status, job queue and exec time,
// records per node, the run spans' simulated steps and exit reasons,
// spans and propagation records per surface, verdict counts and the
// metrics record. It then prints the propagation analytics of all files
// combined: where injected faults first diverged (subsystem × surface),
// how the verdicts split per surface, how long corruption took to
// surface after activation (latency histogram), at which boundary
// masked faults died, and a per-node worker-utilization timeline
// reconstructed from the job spans.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"diverseav/internal/obs"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: ledgerstats ledger.jsonl ...")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	os.Exit(run(os.Stdout, os.Stderr, flag.Args()))
}

// run validates every ledger in paths, then writes each one's roll-up
// and the combined analytics to w. It returns the exit status: 1, with
// each invalid file named on ew and nothing written to w, if any ledger
// fails to read or validate.
func run(w, ew io.Writer, paths []string) int {
	ledgers := make([][]obs.Record, len(paths))
	bad := false
	for i, path := range paths {
		recs, err := load(path)
		if err != nil {
			fmt.Fprintf(ew, "ledgerstats: %s: %v\n", path, err)
			bad = true
		}
		ledgers[i] = recs
	}
	if bad {
		return 1
	}
	var b strings.Builder
	var all []obs.Record
	for i, recs := range ledgers {
		rollup(&b, paths[i], recs)
		all = append(all, recs...)
	}
	b.WriteString(render(all))
	if _, err := io.WriteString(w, b.String()); err != nil {
		fmt.Fprintf(ew, "ledgerstats: %v\n", err)
		return 1
	}
	return 0
}

func load(path string) ([]obs.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := obs.ReadLedger(f)
	if err != nil {
		return nil, err
	}
	return recs, obs.Validate(recs)
}

// rollup writes one ledger's counts. Queue and exec time sum the job
// spans only: a campaign span's time already contains its run spans'.
func rollup(b *strings.Builder, path string, recs []obs.Record) {
	types := map[string]int{}
	phases := map[string]int{}
	caches := map[string]int{}
	nodes := map[string]int{}
	exits := map[string]int{}
	surfaces := map[string][2]int{} // surface → spans, propagation records
	verdicts := map[string]int{}
	var queueNs, execNs, simSteps int64
	var metas []*obs.Meta
	var metrics map[string]int64
	for _, r := range recs {
		types[r.Type]++
		switch r.Type {
		case obs.RecordMeta:
			metas = append(metas, r.Meta)
			if r.Meta.Node != "" {
				nodes[r.Meta.Node]++
			}
		case obs.RecordSpan:
			s := r.Span
			phases[s.Phase]++
			caches[s.Cache]++
			nodes[nodeName(s.Node)]++
			if s.Surface != "" {
				n := surfaces[s.Surface]
				n[0]++
				surfaces[s.Surface] = n
			}
			if s.Phase != "run" {
				queueNs += s.QueueNs
				execNs += s.ExecNs
				break
			}
			if s.ExitReason != "" {
				exits[s.ExitReason]++
			}
			if ss := s.SimulatedSteps; len(ss) == 2 {
				simSteps += int64(ss[1] - ss[0])
			}
		case obs.RecordPropagation:
			n := surfaces[r.Prop.Surface]
			n[1]++
			surfaces[r.Prop.Surface] = n
			nodes[nodeName(r.Prop.Node)]++
			if v := r.Prop.Verdict; v != "" {
				verdicts[v]++
			}
		case obs.RecordMetrics:
			metrics = r.Metrics
		}
	}
	fmt.Fprintf(b, "%s: %d records\n", path, len(recs))
	for _, m := range metas {
		fmt.Fprintf(b, "  meta: %s", m.Tool)
		if m.Node != "" {
			fmt.Fprintf(b, " on %s", m.Node)
		}
		fmt.Fprintf(b, ", schema %d, started %s (%s, GOMAXPROCS=%d)\n", m.Schema, m.Start, m.GoVersion, m.GOMAXPROCS)
	}
	writeCounts(b, "records", types)
	if len(phases) > 0 {
		writeCounts(b, "spans", phases)
		writeCounts(b, "cache", caches)
		fmt.Fprintf(b, "  jobs: queue %s, exec %s\n",
			time.Duration(queueNs).Round(time.Millisecond), time.Duration(execNs).Round(time.Millisecond))
	}
	if len(nodes) > 0 {
		writeCounts(b, "nodes", nodes)
	}
	if runs := phases["run"]; runs > 0 {
		fmt.Fprintf(b, "  runs: %d spans, %d simulated steps", runs, simSteps)
		for _, k := range sortedKeys(exits) {
			fmt.Fprintf(b, ", %d %s", exits[k], k)
		}
		b.WriteByte('\n')
	}
	for _, k := range sortedKeys(surfaces) {
		fmt.Fprintf(b, "  surface %s: %d spans, %d propagation\n", k, surfaces[k][0], surfaces[k][1])
	}
	if len(verdicts) > 0 {
		writeCounts(b, "verdicts", verdicts)
	}
	if metrics != nil {
		fmt.Fprintf(b, "  metrics: %d (sim.runs=%d, sim.steps=%d)\n",
			len(metrics), metrics["sim.runs"], metrics["sim.steps"])
	}
}

// writeCounts writes one roll-up line: "n key" per key of m, sorted by
// key.
func writeCounts(b *strings.Builder, label string, m map[string]int) {
	fmt.Fprintf(b, "  %s:", label)
	for i, k := range sortedKeys(m) {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, " %d %s", m[k], k)
	}
	b.WriteByte('\n')
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// nodeName names the process of a span or propagation record: its node
// in a merged grid ledger, "(local)" when unstamped.
func nodeName(node string) string {
	if node == "" {
		return "(local)"
	}
	return node
}

// latencyBuckets are the histogram edges, in steps after activation:
// bucket i covers [edge[i], edge[i+1]), the last is open-ended. At the
// sim's 40 Hz, 40 steps is one second of propagation latency.
var latencyBuckets = []int{0, 10, 25, 50, 100, 200}

// subsystemOrder fixes attribution-table row order: the agent fabrics,
// the control latches they feed, then the world and sensor streams.
var subsystemOrder = []string{
	obs.SubsystemAgent0, obs.SubsystemAgent1, obs.SubsystemCtrl,
	obs.SubsystemEnv, obs.SubsystemIMU, obs.SubsystemJitter, obs.SubsystemTrace,
}

var boundaryOrder = []string{obs.BoundaryState, obs.BoundaryControl, obs.BoundaryTrajectory}

var verdictOrder = []string{obs.VerdictSDC, obs.VerdictDUE, obs.VerdictMasked}

// render formats the full analysis of a merged record stream.
func render(recs []obs.Record) string {
	var props []*obs.Propagation
	var spans []*obs.Span
	var elapsed []int64 // per-span emission offset, parallel to spans
	for _, r := range recs {
		switch r.Type {
		case obs.RecordPropagation:
			props = append(props, r.Prop)
		case obs.RecordSpan:
			spans = append(spans, r.Span)
			elapsed = append(elapsed, r.ElapsedNs)
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "ledgerstats — %d records, %d spans, %d propagation records\n",
		len(recs), len(spans), len(props))

	surfaces := surfaceColumns(props)
	if len(props) > 0 {
		renderSubsystemTable(&b, props, surfaces)
		renderVerdictTable(&b, props, surfaces)
		renderBoundaryTable(&b, props, surfaces)
		renderLatencyHistogram(&b, props, surfaces)
	} else {
		b.WriteString("\nno propagation records (run the campaign with tracing on)\n")
	}
	renderUtilization(&b, spans, elapsed)
	return b.String()
}

// surfaceColumns lists the surfaces present in the records, in the
// canonical instr/sensorfault/hallucinate order, then any unknown ones
// sorted.
func surfaceColumns(props []*obs.Propagation) []string {
	present := map[string]bool{}
	for _, p := range props {
		present[p.Surface] = true
	}
	var cols []string
	for _, s := range []string{obs.SurfaceInstr, obs.SurfaceSensor, obs.SurfaceHallucinate} {
		if present[s] {
			cols = append(cols, s)
			delete(present, s)
		}
	}
	rest := make([]string, 0, len(present))
	for s := range present {
		rest = append(rest, s)
	}
	sort.Strings(rest)
	return append(cols, rest...)
}

func renderCrossTable(b *strings.Builder, title, rowHdr string, rows, cols []string, count func(row, col string) int) {
	fmt.Fprintf(b, "\n%s\n", title)
	fmt.Fprintf(b, "%-12s", rowHdr)
	for _, c := range cols {
		fmt.Fprintf(b, " %12s", c)
	}
	fmt.Fprintf(b, " %8s\n", "total")
	for _, r := range rows {
		total := 0
		var line strings.Builder
		fmt.Fprintf(&line, "%-12s", r)
		for _, c := range cols {
			n := count(r, c)
			total += n
			fmt.Fprintf(&line, " %12d", n)
		}
		if total == 0 {
			continue // skip empty rows, keep the table tight
		}
		fmt.Fprintf(b, "%s %8d\n", line.String(), total)
	}
}

func renderSubsystemTable(b *strings.Builder, props []*obs.Propagation, cols []string) {
	n := map[[2]string]int{}
	for _, p := range props {
		n[[2]string{p.Subsystem, p.Surface}]++
	}
	renderCrossTable(b, "First-diverged subsystem × surface", "subsystem", subsystemOrder, cols,
		func(r, c string) int { return n[[2]string{r, c}] })
}

func renderVerdictTable(b *strings.Builder, props []*obs.Propagation, cols []string) {
	n := map[[2]string]int{}
	for _, p := range props {
		v := p.Verdict
		if v == "" {
			v = "(none)"
		}
		n[[2]string{v, p.Surface}]++
	}
	rows := append([]string{}, verdictOrder...)
	rows = append(rows, "(none)")
	renderCrossTable(b, "Verdict × surface (traced runs)", "verdict", rows, cols,
		func(r, c string) int { return n[[2]string{r, c}] })
}

func renderBoundaryTable(b *strings.Builder, props []*obs.Propagation, cols []string) {
	n := map[[2]string]int{}
	for _, p := range props {
		if p.Verdict != obs.VerdictMasked {
			continue
		}
		n[[2]string{p.Boundary, p.Surface}]++
	}
	renderCrossTable(b, "Masked at which boundary (masked traced runs)", "boundary", boundaryOrder, cols,
		func(r, c string) int { return n[[2]string{r, c}] })
}

func renderLatencyHistogram(b *strings.Builder, props []*obs.Propagation, cols []string) {
	fmt.Fprintf(b, "\nActivation → divergence latency (steps; 40 steps = 1 s)\n")
	for _, surf := range cols {
		counts := make([]int, len(latencyBuckets))
		total := 0
		for _, p := range props {
			if p.Surface != surf || p.LatencySteps < 0 {
				continue
			}
			total++
			i := sort.SearchInts(latencyBuckets, p.LatencySteps+1) - 1
			if i < 0 {
				i = 0
			}
			counts[i]++
		}
		if total == 0 {
			continue
		}
		fmt.Fprintf(b, "%s (%d with known activation)\n", surf, total)
		max := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		for i, c := range counts {
			label := fmt.Sprintf("%d+", latencyBuckets[i])
			if i+1 < len(latencyBuckets) {
				label = fmt.Sprintf("%d-%d", latencyBuckets[i], latencyBuckets[i+1]-1)
			}
			bar := ""
			if max > 0 {
				bar = strings.Repeat("#", c*40/max)
			}
			fmt.Fprintf(b, "  %-8s %5d %s\n", label, c, bar)
		}
	}
}

// utilizationBuckets is the timeline resolution of the worker view.
const utilizationBuckets = 20

// renderUtilization reconstructs a per-node busy timeline from the job
// spans: each computed job occupied one DAG worker of its node for
// ExecNs ending at its emission offset, so per time bucket the busy
// fraction is the overlap of the node's jobs with the bucket. Spans
// without a node (a single-process ledger) aggregate under "(local)".
// Run spans are left out: their campaign span already covers them, and
// a lane group emits its runs' spans together after the group ends,
// each carrying the group's mean time.
func renderUtilization(b *strings.Builder, spans []*obs.Span, elapsed []int64) {
	if len(spans) == 0 {
		return
	}
	var end int64
	for _, e := range elapsed {
		if e > end {
			end = e
		}
	}
	if end <= 0 {
		return
	}
	busy := map[string][]int64{} // node → per-bucket busy ns
	bucket := end / utilizationBuckets
	if bucket == 0 {
		bucket = 1
	}
	for i, s := range spans {
		if s.Phase == "run" || s.Cache != obs.CacheComputed {
			continue // a run nests in its campaign span; a cache hit cost no execution
		}
		node := nodeName(s.Node)
		bb := busy[node]
		if bb == nil {
			bb = make([]int64, utilizationBuckets)
			busy[node] = bb
		}
		from, to := elapsed[i]-s.ExecNs, elapsed[i]
		if from < 0 {
			from = 0
		}
		for k := 0; k < utilizationBuckets; k++ {
			lo, hi := int64(k)*bucket, int64(k+1)*bucket
			ov := min(hi, to) - max(lo, from)
			if ov > 0 {
				bb[k] += ov
			}
		}
	}
	if len(busy) == 0 {
		return
	}
	nodes := make([]string, 0, len(busy))
	for n := range busy {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	fmt.Fprintf(b, "\nWorker utilization (%d buckets over %.1fs, # >= 75%% busy, + >= 25%%, . > 0)\n",
		utilizationBuckets, float64(end)/1e9)
	for _, n := range nodes {
		var bar, total strings.Builder
		var busyNs int64
		for _, ns := range busy[n] {
			busyNs += ns
			frac := float64(ns) / float64(bucket)
			switch {
			case frac >= 0.75:
				bar.WriteByte('#')
			case frac >= 0.25:
				bar.WriteByte('+')
			case ns > 0:
				bar.WriteByte('.')
			default:
				bar.WriteByte(' ')
			}
		}
		fmt.Fprintf(&total, "busy %2.0f%%", 100*float64(busyNs)/float64(end))
		fmt.Fprintf(b, "%-12s |%s| %s\n", n, bar.String(), total.String())
	}
}
