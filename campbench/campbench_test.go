package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the benchmark's child process:
// parentMain spawns os.Executable(), which here is this binary.
func TestMain(m *testing.M) {
	if role := os.Getenv(childEnv); role != "" {
		o, err := parseFlags(os.Args[1:])
		if err != nil {
			os.Stderr.WriteString(err.Error() + "\n")
			os.Exit(2)
		}
		os.Exit(childMain(o, role, os.Stdout))
	}
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// benchmarkSpec reads the metric lists of ../BENCHMARK.json.
func benchmarkSpec(t *testing.T) (e2e, layers map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layers[m.Name] = m.Unit
	}
	return e2e, layers
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	e2e, layers := benchmarkSpec(t)
	for _, c := range []struct {
		want    map[string]string
		printed []metric
	}{{e2e, endToEnd}, {layers, perLayer}} {
		if len(c.want) != len(c.printed) {
			t.Errorf("BENCHMARK.json lists %d metrics, the benchmark prints %d", len(c.want), len(c.printed))
		}
		for _, m := range c.printed {
			if unit, ok := c.want[m.name]; !ok || unit != m.unit {
				t.Errorf("metric %s [%s]: BENCHMARK.json has unit %q (listed: %v)", m.name, m.unit, unit, ok)
			}
		}
	}
}

// TestWorkloadsToy runs every workload at toy size, untraced and
// traced, and checks the result line: correct, nothing failed, and
// every named metric printed with a unit and a valid name.
func TestWorkloadsToy(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	e2e, layers := benchmarkSpec(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			o := options{workload: w.name, size: "toy", seed: 5, seconds: 0.1, trace: traced}
			if err := parentMain(o, &out); err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w.name, traced, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v", w.name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := e2e
			if traced {
				want = layers
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				v, ok := res.Metrics[name]
				if !ok || v.Unit != unit {
					t.Errorf("%s trace=%v: metric %s printed=%v unit %q, want %q", w.name, traced, name, ok, v.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if !nameRE.MatchString(name) {
					t.Errorf("metric name %q does not match %s", name, nameRE)
				}
			}
		}
	}
}

// TestTamperedRunFails checks that the output check counts changed
// results as failed: a trace value and an outcome fail their own run,
// and a changed report text fails every run.
func TestTamperedRunFails(t *testing.T) {
	for _, name := range []string{"transient", "surface"} {
		w, _ := findWorkload(name)
		in := newInput(w, w.sizes["toy"], 3)
		out, err := in.execute(in.newLab(), nil)
		if err != nil {
			t.Fatal(err)
		}
		ref := out.digests()
		if att, failed := check(out, ref); failed != 0 || att != out.runs() {
			t.Fatalf("%s: untampered run: attempted %d failed %d", name, att, failed)
		}
		tr := out.campaigns[0].Runs[0].Result.Trace
		tr.Steps[len(tr.Steps)/2].X += 1e-9
		att, failed := check(out, ref)
		if failed != 1 || frac(float64(failed), float64(att)) <= 0 {
			t.Errorf("%s: tampered trace: attempted %d failed %d, want 1 failed", name, att, failed)
		}
		out.campaigns[1].Runs[0].Result.Trace.Outcome = "hang"
		if _, failed := check(out, ref); failed != 2 {
			t.Errorf("%s: tampered outcome: failed %d, want 2", name, failed)
		}

		out.report = "report"
		ref = out.digests()
		out.report = "tampered report"
		if att, failed := check(out, ref); failed != att {
			t.Errorf("%s: tampered report: failed %d, want all %d", name, failed, att)
		}
	}
}
