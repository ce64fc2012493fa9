package lab

import (
	"bytes"
	"sync"
	"testing"

	"diverseav/internal/fi"
	"diverseav/internal/obs"
	"diverseav/internal/sim"
	"diverseav/internal/vm"
)

// Require with a ledger attached must emit one span per scheduled job,
// with the DAG visible through the deps/cache fields. Enabling
// telemetry is process-sticky, which is safe in this test binary (no
// disabled-path alloc tests live in internal/lab).
func TestRequireEmitsSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	obs.Enable()
	var buf bytes.Buffer
	led := obs.NewLedger(&buf)
	led.EmitMeta(obs.NewMeta("lab-test"))

	l := New()
	l.RegisterScenario(shortLeadSlowdown())
	l.SetLedger(led)
	var mu sync.Mutex
	var lastDone, lastTotal int
	l.SetProgress(func(done, total int) {
		mu.Lock()
		lastDone, lastTotal = done, total
		mu.Unlock()
	})

	camp := CampaignSpec{Scenario: "LeadSlowdown", Mode: sim.RoundRobin, Target: vm.GPU, Model: fi.Transient, Sizes: shortSizes(), Seed: 41}
	l.Require(camp)
	if err := led.Close(); err != nil {
		t.Fatal(err)
	}

	if lastDone != lastTotal || lastTotal != 2 {
		t.Errorf("progress ended at %d/%d, want 2/2 (golden + campaign)", lastDone, lastTotal)
	}

	recs, err := obs.ReadLedger(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.Validate(recs); err != nil {
		t.Fatalf("emitted ledger invalid: %v", err)
	}
	spans := map[string]*obs.Span{}
	runSpans := 0
	for _, rec := range recs {
		if rec.Type != obs.RecordSpan {
			continue
		}
		if rec.Span.Phase == "run" {
			// Divergence-aware campaigns additionally emit one span per
			// injection run, keyed under the campaign's key.
			runSpans++
			if ss := rec.Span.SimulatedSteps; len(ss) != 2 || ss[1] < ss[0] {
				t.Errorf("run span %s has malformed simulated_steps %v", rec.Span.Key, ss)
			}
			continue
		}
		spans[rec.Span.Phase] = rec.Span
	}
	if len(spans) != 2 {
		t.Fatalf("got %d job span phases %v, want 2 (golden, campaign)", len(spans), spans)
	}
	if runSpans != shortSizes().Transient {
		t.Errorf("got %d run spans, want one per injection (%d)", runSpans, shortSizes().Transient)
	}
	g, c := spans["golden"], spans["campaign"]
	if g == nil || c == nil {
		t.Fatalf("missing golden or campaign span: %v", spans)
	}
	if g.Cache != obs.CacheComputed || c.Cache != obs.CacheComputed {
		t.Errorf("fresh jobs not marked computed: golden=%q campaign=%q", g.Cache, c.Cache)
	}
	if len(c.Deps) != 1 || c.Deps[0] != g.Key {
		t.Errorf("campaign deps = %v, want [%s]", c.Deps, g.Key)
	}
	if g.ExecNs <= 0 || c.ExecNs <= 0 {
		t.Errorf("spans carry no exec time: golden=%d campaign=%d", g.ExecNs, c.ExecNs)
	}
	if c.QueueNs < 0 || g.QueueNs < 0 {
		t.Errorf("negative queue wait: golden=%d campaign=%d", g.QueueNs, c.QueueNs)
	}

	// Store counters are mirrored into the registry.
	snap := obs.Default().Snapshot()
	if snap["lab.computed"] < 2 {
		t.Errorf("lab.computed = %d, want >= 2", snap["lab.computed"])
	}
	batched, cold := snap["campaign.runs_batched"], snap["campaign.runs_cold"]
	if batched+cold < int64(shortSizes().Transient) {
		t.Errorf("batch/cold counters %d+%d cover fewer than %d campaign runs", batched, cold, shortSizes().Transient)
	}
	if batched == 0 {
		t.Error("campaign.runs_batched = 0: the default transient path did not execute in lane groups")
	}

	// A repeat Require is fully memoized: no new spans (nothing
	// scheduled), no new computations.
	before := l.Stats().Computed
	mark := buf.Len()
	led2 := obs.NewLedger(&buf)
	l.SetLedger(led2)
	l.Require(camp)
	led2.Close()
	if l.Stats().Computed != before {
		t.Error("memoized Require recomputed artifacts")
	}
	if buf.Len() != mark {
		t.Error("memoized Require emitted spans for pruned jobs")
	}
}

// A disk-hit Require run must mark its spans with cache status "disk".
func TestRequireSpansDiskStatus(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	obs.Enable()
	dir := t.TempDir()
	sc := shortLeadSlowdown()
	g := GoldenSpec{Scenario: "LeadSlowdown", Mode: sim.Duplicate, N: 2, Seed: 61}

	warm := New()
	warm.RegisterScenario(sc)
	if err := warm.SetDisk(dir); err != nil {
		t.Fatal(err)
	}
	warm.Require(g)

	var buf bytes.Buffer
	led := obs.NewLedger(&buf)
	led.EmitMeta(obs.NewMeta("lab-test"))
	cold := New()
	cold.RegisterScenario(sc)
	if err := cold.SetDisk(dir); err != nil {
		t.Fatal(err)
	}
	cold.SetLedger(led)
	cold.Require(g)
	led.Close()

	recs, err := obs.ReadLedger(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var span *obs.Span
	for _, rec := range recs {
		if rec.Type == obs.RecordSpan {
			span = rec.Span
		}
	}
	if span == nil {
		t.Fatal("no span emitted")
	}
	if span.Cache != obs.CacheDisk {
		t.Errorf("cache status = %q, want %q", span.Cache, obs.CacheDisk)
	}
	if cold.Stats().DiskHits != 1 {
		t.Errorf("DiskHits = %d, want 1", cold.Stats().DiskHits)
	}
}
