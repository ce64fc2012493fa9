// Command replay loads a recorded run trace (JSON, from `avsim -json`)
// and optionally a trained detector (from `traindet`), prints the run
// summary, and re-runs error detection offline under the comparison
// mode the detector was trained for — the workflow for analyzing a
// fleet-collected trace after the fact.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"diverseav/internal/core"
	"diverseav/internal/trace"
	"diverseav/internal/viz"
)

func main() {
	var (
		traceFile = flag.String("trace", "", "trace JSON file (required)")
		detFile   = flag.String("detector", "", "trained detector JSON (optional)")
	)
	flag.Parse()
	if *traceFile == "" {
		fmt.Fprintln(os.Stderr, "replay: -trace is required")
		os.Exit(2)
	}
	if err := replay(os.Stdout, *traceFile, *detFile); err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		os.Exit(1)
	}
}

// replay writes the summary of the trace at tracePath to w and, given a
// detector file, the detector's verdict on the trace. It writes nothing
// if either file fails to load.
func replay(w io.Writer, tracePath, detPath string) error {
	f, err := os.Open(tracePath)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.Decode(f)
	if err != nil {
		return fmt.Errorf("%s: %w", tracePath, err)
	}
	var det *core.Detector
	var mode core.CompareMode
	if detPath != "" {
		df, err := os.Open(detPath)
		if err != nil {
			return err
		}
		defer df.Close()
		if det, err = core.Load(df); err != nil {
			return fmt.Errorf("%s: %w", detPath, err)
		}
		if mode, err = compareMode(det.Compare); err != nil {
			return fmt.Errorf("%s: %w", detPath, err)
		}
	}

	fmt.Fprint(w, viz.TraceSummary(tr))
	if det == nil {
		return nil
	}
	if alarm, ok := det.Detect(tr, mode); ok {
		fmt.Fprintf(w, "ALARM at t=%.2fs on %s (value %.3f > limit %.3f)\n",
			float64(alarm.Step)/tr.Hz, alarm.Channel, alarm.Value, alarm.Limit)
	} else {
		fmt.Fprintln(w, "no alarm")
	}
	return nil
}

// compareMode returns the comparison mode a detector's Compare field
// names.
func compareMode(name string) (core.CompareMode, error) {
	for _, m := range []core.CompareMode{core.CompareAlternating, core.CompareDuplicate, core.CompareTemporal} {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("detector trained for unknown comparison mode %q", name)
}
