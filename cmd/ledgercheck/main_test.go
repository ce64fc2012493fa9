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
// golden and a campaign span, two run spans on the sensor surface (one
// spliced), one propagation record and a metrics snapshot. badSpan adds
// a span without a key, which Validate rejects; cut drops that many
// trailing bytes, as a killed writer leaves the file.
func writeLedger(t *testing.T, badSpan bool, cut int) string {
	t.Helper()
	var buf bytes.Buffer
	led := obs.NewLedger(&buf)
	led.EmitMeta(obs.NewMeta("ledgercheck-test"))
	led.EmitSpan(obs.Span{Key: "golden-a", Phase: "golden", Cache: obs.CacheComputed, ExecNs: 2e6})
	led.EmitSpan(obs.Span{Key: "campaign-a", Phase: "campaign", Cache: obs.CacheDisk, QueueNs: 1e6, Deps: []string{"golden-a"}})
	for i, exit := range []string{obs.ExitSplice, ""} {
		led.EmitSpan(obs.Span{Key: fmt.Sprintf("campaign-a/run-%03d", i), Phase: "run", Cache: obs.CacheComputed,
			SimulatedSteps: []int{10, 40}, ExitReason: exit, Surface: obs.SurfaceSensor})
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

// modes are the three output modes of check: quiet, digest, -summary.
var modes = []struct {
	name           string
	quiet, summary bool
}{{"quiet", true, false}, {"digest", false, false}, {"summary", false, true}}

// TestCheckValid: a well-formed ledger passes in every mode; quiet
// prints nothing, the digest and -summary tables count what was written.
func TestCheckValid(t *testing.T) {
	path := writeLedger(t, false, 0)
	want := map[string][]string{
		"quiet": nil,
		"digest": {"4 spans, 1 campaign, 1 golden, 2 run", "divergence: 2 run spans, 60 simulated steps, 1 splice",
			"OK: 7 records"},
		// Rows as whitespace-joined fields: record types, span phases,
		// surface spans and propagation records, records per node.
		"summary": {fmt.Sprintf("schema %d, 7 records", obs.SchemaVersion), "span 4", "run 2",
			obs.SurfaceSensor + " 2 1", "(local) 5"},
	}
	for _, m := range modes {
		var out bytes.Buffer
		if err := check(&out, path, m.quiet, m.summary); err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if m.quiet && out.Len() != 0 {
			t.Errorf("quiet check printed %q", out.String())
		}
		got := strings.Join(strings.Fields(out.String()), " ")
		for _, w := range want[m.name] {
			if !strings.Contains(got, w) {
				t.Errorf("%s output missing %q:\n%s", m.name, w, out.String())
			}
		}
		if m.summary && strings.Contains(got, "OK:") {
			t.Errorf("summary printed the digest too:\n%s", out.String())
		}
	}
}

// TestCheckRejects: a schema-invalid or truncated ledger fails in every
// mode, before any digest or table is printed.
func TestCheckRejects(t *testing.T) {
	for _, tc := range []struct {
		name, path, want string
	}{
		{"schema-invalid", writeLedger(t, true, 0), "span without key"},
		{"truncated", writeLedger(t, false, 10), "ledger line 7"},
	} {
		for _, m := range modes {
			var out bytes.Buffer
			err := check(&out, tc.path, m.quiet, m.summary)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s/%s: error %v, want one mentioning %q", tc.name, m.name, err, tc.want)
			}
			if out.Len() != 0 {
				t.Errorf("%s/%s: printed %q for a rejected ledger", tc.name, m.name, out.String())
			}
		}
	}
}
