package report

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"diverseav/internal/lab"
)

// TestGenerateUnknownExperiment pins the -e validation: unknown names
// are an error (no partial report) naming both the offenders and the
// valid selectors.
func TestGenerateUnknownExperiment(t *testing.T) {
	_, err := Generate(BenchOptions(), []string{"table1", "fig99", "bogus"})
	if err == nil {
		t.Fatal("unknown experiment names did not error")
	}
	msg := err.Error()
	for _, want := range []string{"bogus", "fig99", "table1", "ablation", "all"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

// TestGenerateEmptySelection: no names selects nothing and runs nothing.
func TestGenerateEmptySelection(t *testing.T) {
	out, err := Generate(BenchOptions(), []string{"", "  "})
	if err != nil {
		t.Fatal(err)
	}
	if out != "" {
		t.Errorf("empty selection produced output: %q", out)
	}
}

// TestExperimentNames pins the selector list and its report order.
func TestExperimentNames(t *testing.T) {
	got := strings.Join(ExperimentNames(), ",")
	want := "fig5a,fig5b,fig2,fig6,table2,overlap,eccoff,table1,fig7,fig8,missed,compare,ablation,surfaces,propagation"
	if got != want {
		t.Errorf("ExperimentNames() = %s, want %s", got, want)
	}
}

// TestBenchReportMatchesGolden is the refactor's acceptance gate: the
// full bench-size report must be byte-identical to the pre-lab
// implementation's output (testdata/bench_report.golden, captured from
// the sequential NewStudy before campaign execution moved into
// internal/lab).
func TestBenchReportMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy (full bench-size study)")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "bench_report.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Generate(BenchOptions(), []string{"all"})
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("bench report differs from golden (%d vs %d bytes)\n%s",
			len(got), len(want), firstDiff(got, string(want)))
	}
}

func firstDiff(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			return fmt.Sprintf("first differing line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	return "one report is a prefix of the other"
}

// studyDeterminismOpts is the reduced scale the study-pair determinism
// tests run at (worker-count, telemetry and propagation byte-identity
// each generate two studies): every mode, target and model is still
// exercised, Transient stays at 2 so lane grouping sees multi-lane
// cohorts, but goldens are singletons and the permanent stride is
// doubled so the three study pairs fit the package's test budget.
func studyDeterminismOpts() Options {
	o := BenchOptions()
	o.Sizes = lab.Sizes{Transient: 2, PermReps: 1, PermStride: 48, Golden: 1, Training: 1}
	o.TDs = []float64{2}
	o.RWs = []int{3}
	return o
}

const (
	determinismChildEnv = "REPORT_DETERMINISM_CHILD"
	determinismOutEnv   = "REPORT_DETERMINISM_OUT"
)

// TestStudyDeterminismChild is the subprocess body for
// TestStudyWorkerCountDeterminism; it only runs when the parent sets the
// child environment variables.
func TestStudyDeterminismChild(t *testing.T) {
	if os.Getenv(determinismChildEnv) == "" {
		t.Skip("subprocess helper")
	}
	out, err := Generate(studyDeterminismOpts(), []string{"table1", "fig7", "fig8", "missed", "compare", "ablation"})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(os.Getenv(determinismOutEnv), []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStudyWorkerCountDeterminism extends the per-run determinism tests
// to the orchestration layer: a full (reduced-size) study executed under
// GOMAXPROCS=1 (lab jobs run inline, one at a time) and GOMAXPROCS=4
// (concurrent DAG execution with interleaved completions) must render
// byte-identical reports. GOMAXPROCS must be set at process start to
// size the internal/par pool, hence the subprocess harness.
func TestStudyWorkerCountDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy (two reduced-size studies)")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	run := func(procs string) string {
		t.Helper()
		out := filepath.Join(t.TempDir(), "report.txt")
		cmd := exec.Command(exe, "-test.run", "^TestStudyDeterminismChild$", "-test.count=1")
		cmd.Env = append(os.Environ(),
			"GOMAXPROCS="+procs,
			determinismChildEnv+"=1",
			determinismOutEnv+"="+out,
		)
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("child GOMAXPROCS=%s failed: %v\n%s", procs, err, b)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	serial := run("1")
	parallel := run("4")
	if serial == "" {
		t.Fatal("child produced an empty report")
	}
	if serial != parallel {
		t.Errorf("study report depends on worker count (%d vs %d bytes)\n%s",
			len(serial), len(parallel), firstDiff(parallel, serial))
	}
}
