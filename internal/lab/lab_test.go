package lab

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"diverseav/internal/core"
	"diverseav/internal/fi"
	"diverseav/internal/scenario"
	"diverseav/internal/sim"
	"diverseav/internal/vm"
)

// shortLeadSlowdown truncates the scenario so simulation-backed tests
// stay fast while still crossing several checkpoint intervals.
func shortLeadSlowdown() *scenario.Scenario {
	sc := *scenario.LeadSlowdown()
	sc.Duration = 5 // 200 steps; checkpoints at 50/100/150 with the default interval
	return &sc
}

func shortSizes() Sizes {
	return Sizes{Transient: 3, PermReps: 1, PermStride: 24, Golden: 2, Training: 1}
}

func traceHash(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestSpecKeys pins the key contract: stability across calls, field
// sensitivity, filename safety, and the execution-strategy exclusion.
func TestSpecKeys(t *testing.T) {
	g := GoldenSpec{Scenario: "LeadSlowdown", Mode: sim.RoundRobin, N: 3, Seed: 11}
	if g.Key() != g.Key() {
		t.Error("GoldenSpec.Key not stable")
	}
	if g.Key() == (GoldenSpec{Scenario: "LeadSlowdown", Mode: sim.RoundRobin, N: 3, Seed: 12}).Key() {
		t.Error("seed change did not change golden key")
	}
	if g.Key() == (GoldenSpec{Scenario: "GhostCutIn", Mode: sim.RoundRobin, N: 3, Seed: 11}).Key() {
		t.Error("scenario change did not change golden key")
	}
	if !strings.HasPrefix(g.Key(), "golden-LeadSlowdown-") {
		t.Errorf("golden key %q lacks readable prefix", g.Key())
	}

	c := CampaignSpec{Scenario: "LeadSlowdown", Mode: sim.RoundRobin, Target: vm.GPU, Model: fi.Transient, Sizes: shortSizes(), Seed: 33}
	forked, cold := c, c
	cold.CheckpointEvery = -1
	if forked.Key() != cold.Key() {
		t.Error("CheckpointEvery leaked into the campaign key: fork and cold executions of the same campaign must share one artifact")
	}
	other := c
	other.Target = vm.CPU
	if other.Key() == c.Key() {
		t.Error("target change did not change campaign key")
	}
	for _, key := range []string{g.Key(), c.Key()} {
		if strings.ContainsAny(key, "/\\ \t") {
			t.Errorf("key %q is not filename-safe", key)
		}
	}

	d := DetectorSpec{Cfg: core.DefaultConfig(), Mode: sim.RoundRobin, Compare: core.CompareAlternating, PerRoute: 1, Seed: 42}
	d2 := d
	d2.Cfg.Margin += 0.01
	if d.Key() == d2.Key() {
		t.Error("detector config change did not change detector key")
	}
}

// TestDerivedSeeds pins the Seed==0 convention: a zero seed derives a
// stable nonzero seed from the other fields, and explicit seeds pass
// through untouched.
func TestDerivedSeeds(t *testing.T) {
	g := GoldenSpec{Scenario: "LeadSlowdown", Mode: sim.RoundRobin, N: 3}
	n1, n2 := g.norm(), g.norm()
	if n1.Seed == 0 {
		t.Fatal("zero seed was not derived")
	}
	if n1.Seed != n2.Seed {
		t.Error("derived seed is not deterministic")
	}
	other := GoldenSpec{Scenario: "GhostCutIn", Mode: sim.RoundRobin, N: 3}
	if other.norm().Seed == n1.Seed {
		t.Error("different specs derived the same seed")
	}
	explicit := GoldenSpec{Scenario: "LeadSlowdown", Mode: sim.RoundRobin, N: 3, Seed: 77}
	if explicit.norm().Seed != 77 {
		t.Error("explicit seed was not preserved")
	}

	// A campaign's zero golden spec derives the conventional private set.
	c := CampaignSpec{Scenario: "LeadSlowdown", Mode: sim.RoundRobin, Target: vm.GPU, Model: fi.Permanent, Sizes: shortSizes(), Seed: 90}.norm()
	want := GoldenSpec{Scenario: "LeadSlowdown", Mode: sim.RoundRobin, N: shortSizes().Golden, Seed: 90 + 1000}
	if c.Golden != want {
		t.Errorf("derived golden dep = %+v, want %+v", c.Golden, want)
	}
}

// TestRequireEmpty guards the scheduler's empty-DAG edge: no requested
// specs (or everything already memoized) must return, not deadlock.
func TestRequireEmpty(t *testing.T) {
	l := New()
	l.Require()
	l.ProvideGolden(GoldenSpec{Scenario: "LeadSlowdown", Mode: sim.Single, N: 1, Seed: 5}, []*sim.Result{{}})
	l.Require(GoldenSpec{Scenario: "LeadSlowdown", Mode: sim.Single, N: 1, Seed: 5})
	if st := l.Stats(); st.Computed != 0 {
		t.Errorf("Require recomputed a provided artifact: %+v", st)
	}
}

// TestUnknownScenario pins the failure mode for unresolvable names.
func TestUnknownScenario(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Error("expected panic for unknown scenario")
		}
	}()
	New().scenarioByName("NoSuchScenario")
}

// TestMemoization runs the same golden spec twice: one simulation, one
// memory hit, same artifact value.
func TestMemoization(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	l := New()
	l.RegisterScenario(shortLeadSlowdown())
	spec := GoldenSpec{Scenario: "LeadSlowdown", Mode: sim.Single, N: 2, Seed: 7}
	a := l.Golden(spec)
	b := l.Golden(spec)
	if &a[0] != &b[0] {
		t.Error("second get did not return the memoized artifact")
	}
	st := l.Stats()
	if st.Computed != 1 || st.MemoryHits != 1 {
		t.Errorf("stats = %+v, want Computed=1 MemoryHits=1", st)
	}
}

// TestRequireDAG schedules a transient campaign plus its own golden dep
// explicitly: the scheduler must deduplicate the shared node, run the
// golden before the campaign, and hand the campaign the same golden
// artifact instance.
func TestRequireDAG(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	l := New()
	l.RegisterScenario(shortLeadSlowdown())
	camp := CampaignSpec{Scenario: "LeadSlowdown", Mode: sim.RoundRobin, Target: vm.GPU, Model: fi.Transient, Sizes: shortSizes(), Seed: 33}
	golden := camp.norm().Golden
	l.Require(camp, golden)
	st := l.Stats()
	// Exactly two jobs: the golden set and the campaign (the fork-executed
	// transient campaign profiles privately, so no profile artifact).
	if st.Computed != 2 {
		t.Errorf("Computed = %d, want 2 (golden + campaign)", st.Computed)
	}
	c := l.Campaign(camp)
	g := l.Golden(golden)
	if len(g) == 0 || &c.Golden[0] != &g[0] {
		t.Error("campaign did not receive the shared golden artifact")
	}
	// A permanent campaign sweeps the ISA without a profile: it adds only
	// itself to the DAG.
	perm := camp
	perm.Model = fi.Permanent
	l.Require(perm)
	if st := l.Stats(); st.Computed != 3 {
		t.Errorf("Computed = %d after permanent campaign, want 3 (+campaign)", st.Computed)
	}
	for _, s := range perm.deps() {
		if _, ok := s.(ProfileSpec); ok {
			t.Errorf("permanent campaign depends on %s", s.Key())
		}
	}
	if _, ok := l.mem[ProfileSpec{Scenario: "LeadSlowdown", Mode: sim.RoundRobin, Seed: 33}.Key()]; ok {
		t.Error("permanent campaign computed a profile artifact")
	}
}

// TestCrossLabDeterminism: the same campaign spec executed in two
// independent labs must produce identical campaigns — the artifact is a
// pure function of the spec (the property the memoizing store and the
// campaign-package wrappers both rely on).
func TestCrossLabDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	sc := shortLeadSlowdown()
	l := New()
	l.RegisterScenario(sc)
	viaLab := l.Campaign(CampaignSpec{Scenario: sc.Name, Mode: sim.RoundRobin, Target: vm.GPU, Model: fi.Transient, Sizes: shortSizes(), Seed: 33})

	l2 := New()
	l2.RegisterScenario(sc)
	again := l2.Campaign(CampaignSpec{Scenario: sc.Name, Mode: sim.RoundRobin, Target: vm.GPU, Model: fi.Transient, Sizes: shortSizes(), Seed: 33})

	if len(viaLab.Runs) != len(again.Runs) {
		t.Fatalf("run counts differ: %d vs %d", len(viaLab.Runs), len(again.Runs))
	}
	for i := range viaLab.Runs {
		if viaLab.Runs[i].Plan != again.Runs[i].Plan {
			t.Fatalf("run %d: plans differ", i)
		}
		if a, b := traceHash(t, viaLab.Runs[i].Result.Trace), traceHash(t, again.Runs[i].Result.Trace); a != b {
			t.Errorf("run %d: traces differ across labs", i)
		}
	}
}

// TestDiskCacheRoundTrip computes a campaign and a detector against a
// disk-backed lab, then replays the same specs in a fresh lab on the
// same directory: zero recomputation, bit-identical artifacts.
func TestDiskCacheRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	dir := t.TempDir()
	sc := shortLeadSlowdown()
	campSpec := CampaignSpec{Scenario: sc.Name, Mode: sim.RoundRobin, Target: vm.GPU, Model: fi.Permanent, Sizes: shortSizes(), Seed: 55}
	detSpec := DetectorSpec{Cfg: core.DefaultConfig(), Mode: sim.RoundRobin, Compare: core.CompareAlternating, PerRoute: 1, Seed: 42}

	l1 := New()
	if err := l1.SetDisk(dir); err != nil {
		t.Fatal(err)
	}
	l1.RegisterScenario(sc)
	c1 := l1.Campaign(campSpec)
	d1 := l1.Detector(detSpec)
	if st := l1.Stats(); st.DiskHits != 0 || st.Computed == 0 {
		t.Fatalf("cold lab stats = %+v", st)
	}

	l2 := New()
	if err := l2.SetDisk(dir); err != nil {
		t.Fatal(err)
	}
	l2.RegisterScenario(sc)
	c2 := l2.Campaign(campSpec)
	d2 := l2.Detector(detSpec)
	st := l2.Stats()
	if st.Computed != 0 {
		t.Errorf("warm lab recomputed %d artifacts (disk hits %d)", st.Computed, st.DiskHits)
	}
	if st.DiskHits == 0 {
		t.Error("warm lab never touched the disk cache")
	}

	if len(c1.Runs) != len(c2.Runs) {
		t.Fatalf("run counts differ: %d vs %d", len(c1.Runs), len(c2.Runs))
	}
	for i := range c1.Runs {
		if c1.Runs[i].Plan != c2.Runs[i].Plan {
			t.Fatalf("run %d: plans differ after disk round trip", i)
		}
		if a, b := traceHash(t, c1.Runs[i].Result.Trace), traceHash(t, c2.Runs[i].Result.Trace); a != b {
			t.Errorf("run %d: trace changed across the disk round trip", i)
		}
		if c1.Runs[i].Result.Activations != c2.Runs[i].Result.Activations {
			t.Errorf("run %d: activations changed across the disk round trip", i)
		}
	}
	if a, b := traceHash(t, c1.Baseline), traceHash(t, c2.Baseline); a != b {
		t.Error("baseline changed across the disk round trip")
	}
	var j1, j2 bytes.Buffer
	if err := d1.Save(&j1); err != nil {
		t.Fatal(err)
	}
	if err := d2.Save(&j2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
		t.Error("detector changed across the disk round trip")
	}

	// Corrupt cache entries — a recognized wire header with garbage after
	// it — must fall back to recomputation, not fail.
	l3 := New()
	if err := l3.SetDisk(dir); err != nil {
		t.Fatal(err)
	}
	l3.RegisterScenario(sc)
	corrupt := append(wireHeader(), []byte("not a gob")...)
	if err := os.WriteFile(diskPath(dir, detSpec.Key()), corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if l3.Detector(detSpec) == nil {
		t.Fatal("corrupt cache entry broke the getter")
	}
	if st := l3.Stats(); st.Computed != 1 {
		t.Errorf("corrupt entry: Computed = %d, want 1 (recomputed)", st.Computed)
	}
	if st := l3.Stats(); st.DiskCorrupt != 1 {
		t.Errorf("corrupt entry: DiskCorrupt = %d, want 1", st.DiskCorrupt)
	}

	// A pre-versioning entry (no wire header at all, the format before the
	// header line) is a quiet miss, not corruption: old cache directories
	// degrade to empty ones.
	l5 := New()
	if err := l5.SetDisk(dir); err != nil {
		t.Fatal(err)
	}
	l5.RegisterScenario(sc)
	if err := os.WriteFile(diskPath(dir, detSpec.Key()), []byte("not a gob"), 0o644); err != nil {
		t.Fatal(err)
	}
	if l5.Detector(detSpec) == nil {
		t.Fatal("unversioned cache entry broke the getter")
	}
	if st := l5.Stats(); st.Computed != 1 || st.DiskCorrupt != 0 {
		t.Errorf("unversioned entry: Computed = %d, DiskCorrupt = %d, want 1 and 0 (a miss)", st.Computed, st.DiskCorrupt)
	}

	// A plain miss (no file at all) is not corruption.
	l4 := New()
	if err := l4.SetDisk(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	l4.RegisterScenario(sc)
	l4.Detector(detSpec)
	if st := l4.Stats(); st.DiskCorrupt != 0 {
		t.Errorf("cache miss: DiskCorrupt = %d, want 0", st.DiskCorrupt)
	}
}
