package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"diverseav/internal/obs"
)

// writeLedger writes a small campaign ledger through obs.NewLedger: a
// golden disk hit, a campaign span of 10 ms exec with two 4 ms run spans
// inside it on the sensor surface (one spliced), one propagation record
// and a metrics snapshot. badSpan adds a span without a key, which
// Validate rejects; cut drops that many trailing bytes, as a killed
// writer leaves the file.
func writeLedger(t *testing.T, badSpan bool, cut int) string {
	t.Helper()
	var buf bytes.Buffer
	led := obs.NewLedger(&buf)
	led.EmitMeta(obs.NewMeta("ledgerstats-test"))
	led.EmitSpan(obs.Span{Key: "golden-a", Phase: "golden", Cache: obs.CacheDisk, QueueNs: 1e6})
	led.EmitSpan(obs.Span{Key: "campaign-a", Phase: "campaign", Cache: obs.CacheComputed, ExecNs: 10e6, Deps: []string{"golden-a"}})
	for i, exit := range []string{obs.ExitSplice, ""} {
		led.EmitSpan(obs.Span{Key: fmt.Sprintf("campaign-a/run-%03d", i), Phase: "run", Cache: obs.CacheComputed,
			ExecNs: 4e6, SimulatedSteps: []int{10, 40}, ExitReason: exit, Surface: obs.SurfaceSensor})
	}
	led.EmitProp(obs.Propagation{Key: "campaign-a/run-000", Surface: obs.SurfaceSensor, Subsystem: obs.SubsystemAgent0,
		Boundary: obs.BoundaryState, Verdict: obs.VerdictMasked, Step: 20, ActivationStep: 12, LatencySteps: 8})
	if badSpan {
		led.EmitSpan(obs.Span{Phase: "run", Cache: obs.CacheComputed})
	}
	led.EmitMetrics(map[string]int64{"sim.runs": 3, "sim.steps": 120})
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	if err := os.WriteFile(path, buf.Bytes()[:buf.Len()-cut], 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCheckValid: a well-formed ledger exits 0, and its roll-up counts
// what was written. The job exec total leaves out the run spans nested
// in the campaign span.
func TestCheckValid(t *testing.T) {
	path := writeLedger(t, false, 0)
	var out, errOut bytes.Buffer
	if code := run(&out, &errOut, []string{path}); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	got := strings.Join(strings.Fields(out.String()), " ")
	for _, want := range []string{
		path + ": 7 records",
		fmt.Sprintf("meta: ledgerstats-test, schema %d,", obs.SchemaVersion),
		"records: 1 meta, 1 metrics, 1 propagation, 4 span",
		"spans: 1 campaign, 1 golden, 2 run",
		"cache: 3 computed, 1 disk",
		"jobs: queue 1ms, exec 10ms",
		"nodes: 5 (local)",
		"runs: 2 spans, 60 simulated steps, 1 splice",
		"surface " + obs.SurfaceSensor + ": 2 spans, 1 propagation",
		"verdicts: 1 " + obs.VerdictMasked,
		"metrics: 2 (sim.runs=3, sim.steps=120)",
		"ledgerstats — 7 records, 4 spans, 1 propagation records",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestCheckRejects: a schema-invalid and a truncated ledger each make
// the run exit 1, named on stderr, before any roll-up or analytics is
// printed, even for a valid ledger given alongside them.
func TestCheckRejects(t *testing.T) {
	invalid, truncated := writeLedger(t, true, 0), writeLedger(t, false, 10)
	var out, errOut bytes.Buffer
	if code := run(&out, &errOut, []string{writeLedger(t, false, 0), invalid, truncated}); code != 1 {
		t.Errorf("exit %d, want 1", code)
	}
	if out.Len() != 0 {
		t.Errorf("printed %q for rejected ledgers", out.String())
	}
	for _, want := range []string{invalid + ": ", "span without key", truncated + ": ", "ledger line 7"} {
		if !strings.Contains(errOut.String(), want) {
			t.Errorf("stderr missing %q:\n%s", want, errOut.String())
		}
	}
}

func prop(surface, subsystem, verdict, boundary string, latency int) obs.Record {
	p := &obs.Propagation{
		Key: "k/run-000", Surface: surface, Subsystem: subsystem,
		Verdict: verdict, Boundary: boundary,
		Step: 100, ActivationStep: -1, LatencySteps: latency,
	}
	if latency >= 0 {
		p.ActivationStep = 100 - latency
	}
	return obs.Record{Type: obs.RecordPropagation, Prop: p}
}

func span(node, phase, cache string, execNs, elapsedNs int64) obs.Record {
	return obs.Record{
		Type: obs.RecordSpan, ElapsedNs: elapsedNs,
		Span: &obs.Span{Key: "k", Phase: phase, Cache: cache, ExecNs: execNs, Node: node},
	}
}

// TestRenderTables: the cross tables aggregate propagation records by
// surface and drop empty rows; the boundary table counts masked runs
// only.
func TestRenderTables(t *testing.T) {
	recs := []obs.Record{
		{Type: obs.RecordMeta, Meta: &obs.Meta{Tool: "test", Schema: obs.SchemaVersion}},
		prop(obs.SurfaceSensor, obs.SubsystemAgent0, obs.VerdictSDC, obs.BoundaryTrajectory, 12),
		prop(obs.SurfaceSensor, obs.SubsystemAgent0, obs.VerdictMasked, obs.BoundaryState, 3),
		prop(obs.SurfaceInstr, obs.SubsystemCtrl, obs.VerdictMasked, obs.BoundaryControl, -1),
	}
	if err := obs.Validate(recs); err != nil {
		t.Fatalf("synthetic records do not validate: %v", err)
	}
	out := render(recs)
	for _, want := range []string{
		"3 propagation records",
		"First-diverged subsystem × surface",
		"Verdict × surface",
		"Masked at which boundary",
		"Activation → divergence latency",
		obs.SurfaceSensor, obs.SurfaceInstr,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q\n%s", want, out)
		}
	}
	// agent0 diverged first twice on the sensor surface, never on instr.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, obs.SubsystemAgent0) {
			f := strings.Fields(line)
			// subsystem, instr, sensorfault, total
			if len(f) != 4 || f[1] != "0" || f[2] != "2" || f[3] != "2" {
				t.Errorf("agent0 row = %q, want 0 instr / 2 sensorfault / 2 total", line)
			}
		}
		if strings.HasPrefix(line, obs.SubsystemAgent1) {
			t.Errorf("empty subsystem row not dropped: %q", line)
		}
	}
	// The SDC run is not masked, so only the state and control
	// boundaries appear in the masked table.
	if strings.Contains(out, obs.BoundaryTrajectory+" ") &&
		strings.Index(out, obs.BoundaryTrajectory+" ") > strings.Index(out, "Masked at which boundary") {
		t.Errorf("non-masked run leaked into the boundary table\n%s", out)
	}
}

// TestRenderNoProps: a span-only ledger reports the absence of
// propagation records instead of printing empty tables.
func TestRenderNoProps(t *testing.T) {
	out := render([]obs.Record{
		{Type: obs.RecordMeta, Meta: &obs.Meta{Tool: "test"}},
	})
	if !strings.Contains(out, "no propagation records") {
		t.Errorf("missing no-records notice:\n%s", out)
	}
	if strings.Contains(out, "Verdict × surface") {
		t.Errorf("empty tables rendered:\n%s", out)
	}
}

// TestRenderUtilization: the worker timeline attributes each job span's
// ExecNs to its node, aggregates unstamped spans under (local), and
// skips cache hits and run spans.
func TestRenderUtilization(t *testing.T) {
	recs := []obs.Record{
		{Type: obs.RecordMeta, Meta: &obs.Meta{Tool: "test", Schema: obs.SchemaVersion}},
		// worker-0 busy the whole first half, idle after.
		span("worker-0", "campaign", obs.CacheComputed, 500, 500),
		// worker-1 busy the second half.
		span("worker-1", "campaign", obs.CacheComputed, 500, 1000),
		// an unstamped single-process span lands under (local).
		span("", "golden", obs.CacheComputed, 1000, 1000),
		// a disk hit costs no execution and must not count.
		span("worker-0", "campaign", obs.CacheDisk, 0, 900),
		// runs inside worker-1's campaign, emitted with its end stamp:
		// already covered by the campaign span, they must not count.
		span("worker-1", "run", obs.CacheComputed, 250, 1000),
		span("worker-1", "run", obs.CacheComputed, 250, 1000),
	}
	if err := obs.Validate(recs); err != nil {
		t.Fatalf("synthetic records do not validate: %v", err)
	}
	out := render(recs)
	for _, want := range []string{"Worker utilization", "worker-0", "worker-1", "(local)"} {
		if !strings.Contains(out, want) {
			t.Errorf("utilization output missing %q\n%s", want, out)
		}
	}
	var w0, w1, local string
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "worker-0"):
			w0 = line
		case strings.HasPrefix(line, "worker-1"):
			w1 = line
		case strings.HasPrefix(line, "(local)"):
			local = line
		}
	}
	for line, want := range map[string]string{w0: "busy 50%", w1: "busy 50%", local: "busy 100%"} {
		if !strings.Contains(line, want) {
			t.Errorf("line %q missing %q", line, want)
		}
	}
	// worker-0 worked the first half only: its bar's busy marks must all
	// precede worker-1's.
	bar := func(line string) string {
		i, j := strings.Index(line, "|"), strings.LastIndex(line, "|")
		return line[i+1 : j]
	}
	if b := bar(w0); strings.TrimRight(b, " ") != strings.Repeat("#", utilizationBuckets/2) {
		t.Errorf("worker-0 bar = %q, want first-half busy", b)
	}
	if b := bar(w1); strings.TrimLeft(b, " ") != strings.Repeat("#", utilizationBuckets/2) {
		t.Errorf("worker-1 bar = %q, want second-half busy", b)
	}
}
