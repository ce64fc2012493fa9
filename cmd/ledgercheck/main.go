// Command ledgercheck validates JSONL telemetry ledgers written by the
// -telemetry flag of the other drivers and prints a per-file digest:
// span counts by phase and cache status, total queue/exec time, the
// per-node span counts of a merged grid ledger, the divergence-aware
// run summary (simulated steps and exit-reason counts from the per-run
// spans), the per-fault-surface run-span tally, the
// propagation-record tally, and the metrics record. With -summary it
// prints a human-readable table instead: records per type, phase,
// surface and node, plus the schema version. It exits nonzero on the
// first invalid file, so CI can gate on the ledger schema.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"diverseav/internal/obs"
)

func main() {
	quiet := flag.Bool("q", false, "only report errors, no per-file digest")
	summary := flag.Bool("summary", false, "print a per-file summary table instead of the digest")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: ledgercheck [-q] [-summary] ledger.jsonl ...")
		os.Exit(2)
	}
	bad := false
	for _, path := range flag.Args() {
		if err := check(os.Stdout, path, *quiet, *summary); err != nil {
			fmt.Fprintf(os.Stderr, "ledgercheck: %s: %v\n", path, err)
			bad = true
		}
	}
	if bad {
		os.Exit(1)
	}
}

func check(w io.Writer, path string, quiet, summary bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	recs, err := obs.ReadLedger(f)
	if err != nil {
		return err
	}
	if err := obs.Validate(recs); err != nil {
		return err
	}
	if quiet {
		return nil
	}
	if summary {
		printSummary(w, path, recs)
		return nil
	}

	phases := map[string]int{}
	caches := map[string]int{}
	exits := map[string]int{}
	nodes := map[string]int{}
	surfaces := map[string]int{}
	verdicts := map[string]int{}
	var spans, props int
	var queueNs, execNs int64
	var simSteps int64
	var metrics map[string]int64
	for _, r := range recs {
		switch r.Type {
		case obs.RecordMeta:
			fmt.Fprintf(w, "%s: %s ledger (schema %d), started %s (%s, GOMAXPROCS=%d)\n",
				path, r.Meta.Tool, r.Meta.Schema, r.Meta.Start, r.Meta.GoVersion, r.Meta.GOMAXPROCS)
		case obs.RecordSpan:
			spans++
			phases[r.Span.Phase]++
			caches[r.Span.Cache]++
			if r.Span.Node != "" {
				nodes[r.Span.Node]++
			}
			queueNs += r.Span.QueueNs
			execNs += r.Span.ExecNs
			if r.Span.ExitReason != "" {
				exits[r.Span.ExitReason]++
			}
			if r.Span.Surface != "" {
				surfaces[r.Span.Surface]++
			}
			if ss := r.Span.SimulatedSteps; len(ss) == 2 {
				simSteps += int64(ss[1] - ss[0])
			}
		case obs.RecordPropagation:
			props++
			if v := r.Prop.Verdict; v != "" {
				verdicts[v]++
			}
		case obs.RecordMetrics:
			metrics = r.Metrics
		}
	}
	fmt.Fprintf(w, "  %d spans", spans)
	for _, k := range sortedCounts(phases) {
		fmt.Fprintf(w, ", %d %s", phases[k], k)
	}
	fmt.Fprintln(w)
	if spans > 0 {
		fmt.Fprintf(w, "  cache:")
		for _, k := range sortedCounts(caches) {
			fmt.Fprintf(w, " %d %s", caches[k], k)
		}
		fmt.Fprintf(w, "; queue %s, exec %s\n",
			time.Duration(queueNs).Round(time.Millisecond),
			time.Duration(execNs).Round(time.Millisecond))
	}
	if len(nodes) > 0 {
		fmt.Fprintf(w, "  nodes:")
		for _, k := range sortedCounts(nodes) {
			fmt.Fprintf(w, " %d %s", nodes[k], k)
		}
		fmt.Fprintln(w)
	}
	if runs := phases["run"]; runs > 0 {
		fmt.Fprintf(w, "  divergence: %d run spans, %d simulated steps", runs, simSteps)
		for _, k := range sortedCounts(exits) {
			fmt.Fprintf(w, ", %d %s", exits[k], k)
		}
		fmt.Fprintln(w)
	}
	if len(surfaces) > 0 {
		fmt.Fprintf(w, "  surfaces:")
		for _, k := range sortedCounts(surfaces) {
			fmt.Fprintf(w, " %d %s", surfaces[k], k)
		}
		fmt.Fprintln(w)
	}
	if props > 0 {
		fmt.Fprintf(w, "  propagation: %d records", props)
		for _, k := range sortedCounts(verdicts) {
			fmt.Fprintf(w, ", %d %s", verdicts[k], k)
		}
		fmt.Fprintln(w)
	}
	if metrics != nil {
		fmt.Fprintf(w, "  %d metrics (sim.runs=%d, sim.steps=%d)\n",
			len(metrics), metrics["sim.runs"], metrics["sim.steps"])
	}
	fmt.Fprintf(w, "  OK: %d records\n", len(recs))
	return nil
}

// printSummary renders the -summary table: record counts per type, span
// counts per phase, per-surface span and propagation counts, and
// per-node record counts of a merged grid ledger.
func printSummary(w io.Writer, path string, recs []obs.Record) {
	types := map[string]int{}
	phases := map[string]int{}
	surfSpans := map[string]int{}
	surfProps := map[string]int{}
	nodes := map[string]int{}
	schema := 0
	for _, r := range recs {
		types[r.Type]++
		switch r.Type {
		case obs.RecordMeta:
			schema = r.Meta.Schema
			if r.Meta.Node != "" {
				nodes[r.Meta.Node]++
			}
		case obs.RecordSpan:
			phases[r.Span.Phase]++
			if r.Span.Surface != "" {
				surfSpans[r.Span.Surface]++
			}
			if r.Span.Node != "" {
				nodes[r.Span.Node]++
			} else {
				nodes["(local)"]++
			}
		case obs.RecordPropagation:
			surfProps[r.Prop.Surface]++
			if r.Prop.Node != "" {
				nodes[r.Prop.Node]++
			} else {
				nodes["(local)"]++
			}
		}
	}
	fmt.Fprintf(w, "%s — schema %d, %d records\n", path, schema, len(recs))
	fmt.Fprintf(w, "  %-14s %7s\n", "type", "records")
	for _, k := range sortedCounts(types) {
		fmt.Fprintf(w, "  %-14s %7d\n", k, types[k])
	}
	if len(phases) > 0 {
		fmt.Fprintf(w, "  %-14s %7s\n", "phase", "spans")
		for _, k := range sortedCounts(phases) {
			fmt.Fprintf(w, "  %-14s %7d\n", k, phases[k])
		}
	}
	if len(surfSpans) > 0 || len(surfProps) > 0 {
		fmt.Fprintf(w, "  %-14s %7s %12s\n", "surface", "spans", "propagation")
		union := map[string]int{}
		for k := range surfSpans {
			union[k]++
		}
		for k := range surfProps {
			union[k]++
		}
		for _, k := range sortedCounts(union) {
			fmt.Fprintf(w, "  %-14s %7d %12d\n", k, surfSpans[k], surfProps[k])
		}
	}
	if len(nodes) > 0 {
		fmt.Fprintf(w, "  %-14s %7s\n", "node", "records")
		for _, k := range sortedCounts(nodes) {
			fmt.Fprintf(w, "  %-14s %7d\n", k, nodes[k])
		}
	}
}

func sortedCounts(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
