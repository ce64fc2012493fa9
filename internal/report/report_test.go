package report

import (
	"strings"
	"testing"

	"diverseav/internal/lab"
)

func TestOptionsDefaults(t *testing.T) {
	o := DefaultOptions()
	if len(o.TDs) != 5 || len(o.RWs) == 0 || o.Sizes.Transient == 0 {
		t.Errorf("defaults incomplete: %+v", o)
	}
	b := BenchOptions()
	if b.Sizes.Transient >= o.Sizes.Transient {
		t.Error("bench sizes not smaller than defaults")
	}
	if b.Sizes != lab.BenchSizes() {
		t.Error("bench options do not use bench sizes")
	}
}

func TestFig5aSection(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := Fig5a(BenchOptions())
	for _, want := range []string{"Fig 5a", "camera", "IMU+GPS", "LiDAR", "bbox", "3-D"} {
		if !strings.Contains(s, want) {
			t.Errorf("Fig5a section missing %q:\n%s", want, s)
		}
	}
}

func TestFig5bSection(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := Fig5b(BenchOptions())
	if !strings.Contains(s, "bit difference") {
		t.Errorf("Fig5b section malformed:\n%s", s)
	}
}

func TestTable2Section(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := Table2(BenchOptions())
	for _, want := range []string{"Single Agent", "DiverseAV", "FD*"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table2 missing %q:\n%s", want, s)
		}
	}
}

func TestAblationOverlapSection(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := AblationOverlap(BenchOptions())
	if !strings.Contains(s, "0.50") || !strings.Contains(s, "overlap") {
		t.Errorf("overlap ablation malformed:\n%s", s)
	}
}
