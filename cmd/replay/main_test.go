package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"diverseav/internal/core"
	"diverseav/internal/trace"
)

// synthTrace builds a round-robin trace of 2000 steps: the agents
// alternate, and from step fromStep on agent 1's throttle sits
// divergence above agent 0's.
func synthTrace(divergence float64, fromStep int) *trace.Trace {
	tr := &trace.Trace{Scenario: "synth", Mode: "diverseav", Hz: 40, Outcome: trace.OutcomeCompleted}
	for i := 0; i < 2000; i++ {
		id := i % 2
		thr := 0.5
		if id == 1 && i >= fromStep {
			thr += divergence
		}
		s := trace.Step{T: float64(i) / 40, V: 10, AgentID: id}
		s.Cmd[id] = trace.Cmd{Valid: true, Throttle: thr}
		tr.Steps = append(tr.Steps, s)
		tr.EndStep = i
	}
	return tr
}

// writeFile writes what encode writes into a file in the test's
// temporary directory and returns the path.
func writeFile(t *testing.T, name string, encode func(io.Writer) error) string {
	t.Helper()
	var buf bytes.Buffer
	if err := encode(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// detectorFile trains a detector for mode on a quiet trace, names its
// comparison mode compare in the file, and returns the file's path.
func detectorFile(t *testing.T, mode core.CompareMode, compare string) string {
	t.Helper()
	det := core.NewDetector(core.Config{RW: 3, Margin: 0.10, Epsilon: 0.02, Hold: 4, Warmup: 20}, mode)
	det.Train([]*trace.Trace{synthTrace(0.05, 0)}, mode, 3)
	det.Compare = compare
	return writeFile(t, "detector.json", det.Save)
}

// TestReplay: a trace alone prints its summary; with a detector the
// verdict follows, under the comparison mode stored in the detector. A
// detector naming no known mode and an undecodable trace each fail
// before anything is printed.
func TestReplay(t *testing.T) {
	quiet := writeFile(t, "quiet.json", synthTrace(0.05, 0).Encode)
	faulty := writeFile(t, "faulty.json", synthTrace(0.4, 500).Encode)
	garbage := writeFile(t, "garbage.json", func(w io.Writer) error {
		_, err := io.WriteString(w, "{not json")
		return err
	})
	alternating := detectorFile(t, core.CompareAlternating, "alternating")
	// Under duplicate comparison a round-robin trace has no step where
	// both agents command, so this detector never alarms.
	duplicate := detectorFile(t, core.CompareDuplicate, "duplicate")
	for _, tc := range []struct {
		name, trace, det, want, wantErr string
	}{
		{name: "trace only", trace: faulty},
		{name: "quiet", trace: quiet, det: alternating, want: "no alarm"},
		{name: "faulty", trace: faulty, det: alternating, want: "ALARM at t=12."},
		{name: "duplicate", trace: faulty, det: duplicate, want: "no alarm"},
		{name: "unknown compare", trace: faulty, det: detectorFile(t, core.CompareAlternating, "sideways"),
			wantErr: `unknown comparison mode "sideways"`},
		{name: "undecodable trace", trace: garbage, wantErr: "trace: decode"},
	} {
		var out bytes.Buffer
		err := replay(&out, tc.trace, tc.det)
		got := out.String()
		switch {
		case tc.wantErr != "":
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.wantErr)
			}
			if got != "" {
				t.Errorf("%s: printed %q", tc.name, got)
			}
		case err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case !strings.HasPrefix(got, "synth (diverseav mode, seed 0): completed"):
			t.Errorf("%s: output does not open with the trace summary:\n%s", tc.name, got)
		case tc.want == "" && strings.Contains(strings.ToLower(got), "alarm"):
			t.Errorf("%s: printed a verdict without a detector:\n%s", tc.name, got)
		case !strings.Contains(got, tc.want):
			t.Errorf("%s: output missing %q:\n%s", tc.name, tc.want, got)
		}
	}
}
