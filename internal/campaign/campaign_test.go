package campaign

import (
	"testing"

	"diverseav/internal/core"
	"diverseav/internal/fi"
	"diverseav/internal/lab"
	"diverseav/internal/sim"
	"diverseav/internal/vm"
)

// Campaign runs are the slow path of the suite; these tests build the
// artifacts the analysis layer consumes through lab specs at tiny sizes
// on one scenario, and skip in -short mode.

// leadSlowdown is a library scenario: a fresh lab resolves it by name.
const leadSlowdown = "LeadSlowdown"

func tinySizes() lab.Sizes {
	return lab.Sizes{Transient: 2, PermReps: 1, PermStride: 11, Golden: 2, Training: 1}
}

func testDetector() *core.Detector {
	return lab.New().Detector(lab.DetectorSpec{Cfg: core.DefaultConfig(), Mode: sim.RoundRobin, Compare: core.CompareAlternating, PerRoute: 1, Seed: 42})
}

func TestGoldenRunsAreDistinctAndComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	golden := lab.New().Golden(lab.GoldenSpec{Scenario: leadSlowdown, Mode: sim.RoundRobin, N: 3, Seed: 100})
	if len(golden) != 3 {
		t.Fatalf("golden = %d", len(golden))
	}
	seen := map[uint64]bool{}
	for _, g := range golden {
		if g.Trace.DUE() || g.Trace.Collided() {
			t.Errorf("golden run %d unsafe: %s", g.Trace.Seed, g.Trace.Outcome)
		}
		if seen[g.Trace.Seed] {
			t.Error("duplicate golden seed")
		}
		seen[g.Trace.Seed] = true
	}
}

func TestProfileNonEmpty(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	prof := lab.New().Profile(lab.ProfileSpec{Scenario: leadSlowdown, Mode: sim.RoundRobin, Seed: 5})
	if prof.InstrCount[vm.GPU] == 0 || prof.InstrCount[vm.CPU] == 0 {
		t.Fatalf("empty profile: %+v", prof.InstrCount)
	}
	if len(prof.ActiveOpcodes(vm.GPU)) < 15 {
		t.Errorf("GPU active opcodes = %d, suspiciously few", len(prof.ActiveOpcodes(vm.GPU)))
	}
}

func TestCampaignEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	c := lab.New().Campaign(lab.CampaignSpec{Scenario: leadSlowdown, Mode: sim.RoundRobin, Target: vm.GPU, Model: fi.Permanent, Sizes: tinySizes(), Seed: 7})
	if len(c.Runs) == 0 {
		t.Fatal("no runs")
	}
	if len(c.Baseline) == 0 {
		t.Fatal("no baseline trajectory")
	}
	row := c.Table1Row(2)
	if row.Total != len(c.Runs) {
		t.Errorf("row total = %d, want %d", row.Total, len(c.Runs))
	}
	if row.HangCrash+row.Accidents+row.TrajViolates > row.Total {
		t.Error("row categories exceed total")
	}
	// Severity categories are mutually exclusive per run, so Active >=
	// each category's membership where applicable.
	if row.Active > row.Total {
		t.Error("active exceeds total")
	}

	// Hazard labeling against the golden baseline must be stable: a
	// golden run itself is not a hazard at td = 2.
	for _, g := range c.Golden {
		if c.Hazard(g, 2) {
			t.Error("golden run labeled hazardous at td=2")
		}
	}
}

func TestEvaluateConfusionAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	det := testDetector()
	c := lab.New().Campaign(lab.CampaignSpec{Scenario: leadSlowdown, Mode: sim.RoundRobin, Target: vm.GPU, Model: fi.Transient, Sizes: tinySizes(), Seed: 9})
	cells := Evaluate(det, core.CompareAlternating, []*lab.Campaign{c}, []float64{2, 5}, []int{3})
	if len(cells) != 2 {
		t.Fatalf("cells = %d", len(cells))
	}
	for _, cell := range cells {
		nonDUE := 0
		for _, r := range c.Runs {
			if !r.Result.Trace.DUE() {
				nonDUE++
			}
		}
		want := nonDUE + len(c.Golden)
		if got := cell.TP + cell.FP + cell.TN + cell.FN; got != want {
			t.Errorf("td=%v: confusion covers %d runs, want %d", cell.TD, got, want)
		}
	}
}

func TestTrainDetectorProducesThresholds(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	det := testDetector()
	thr, brk, _ := det.Global()
	if thr <= 0 || brk <= 0 {
		t.Errorf("global thresholds not learned: %v %v", thr, brk)
	}
	for _, rw := range core.DefaultRWs() {
		if !det.Trained(rw) {
			t.Errorf("rw=%d not trained", rw)
		}
	}
}
