package core

import (
	"reflect"
	"testing"

	"diverseav/internal/scenario"
	"diverseav/internal/sim"
	"diverseav/internal/trace"
)

// TestMergedTrainingMatchesBatch pins the equivalence streamed detector
// training rests on: one partial detector per fault-free trace, merged,
// equals Train over all traces at once, for every comparison mode.
func TestMergedTrainingMatchesBatch(t *testing.T) {
	const perRoute = 2
	routes := scenario.TrainingRoutes()
	for _, r := range routes {
		r.Duration = 12 // long enough to pass the default warm-up
	}
	for _, c := range []struct {
		mode    sim.Mode
		compare CompareMode
	}{
		{sim.RoundRobin, CompareAlternating},
		{sim.Duplicate, CompareDuplicate},
		{sim.Single, CompareTemporal},
	} {
		t.Run(c.compare.String(), func(t *testing.T) {
			var traces []*trace.Trace
			merged := NewDetector(DefaultConfig(), c.compare)
			for ri, r := range routes {
				for k := 0; k < perRoute; k++ {
					tr := sim.Run(sim.Config{Scenario: r, Mode: c.mode, Seed: uint64(ri*100+k)*6151 + 1}).Trace
					traces = append(traces, tr)
					part := NewDetector(DefaultConfig(), c.compare)
					part.Train([]*trace.Trace{tr}, c.compare)
					merged.Merge(part)
				}
			}
			batch := NewDetector(DefaultConfig(), c.compare)
			batch.Train(traces, c.compare)
			if len(batch.Sets) != len(DefaultRWs()) {
				t.Fatalf("batch trained %d window sizes, want %d", len(batch.Sets), len(DefaultRWs()))
			}
			if g, _, _ := batch.Global(); g == 0 {
				t.Fatal("batch training learned no throttle threshold")
			}
			if !reflect.DeepEqual(merged, batch) {
				t.Fatal("merged per-trace training differs from batch Train")
			}
		})
	}
}

func TestMergeKeepsMaxima(t *testing.T) {
	a := NewDetector(testConfig(), CompareAlternating)
	a.Train([]*trace.Trace{synthTrace(500, 0.5, 0.3, 0)}, CompareAlternating, 3)
	b := NewDetector(testConfig(), CompareAlternating)
	b.Train([]*trace.Trace{synthTrace(500, 0.5, 0.05, 0)}, CompareAlternating, 3, 10)
	ab := NewDetector(testConfig(), CompareAlternating)
	ab.Merge(a)
	ab.Merge(b)
	ba := NewDetector(testConfig(), CompareAlternating)
	ba.Merge(b)
	ba.Merge(a)
	if !reflect.DeepEqual(ab, ba) {
		t.Fatal("merge depends on order")
	}
	if !ab.Trained(3) || !ab.Trained(10) {
		t.Fatal("merge dropped a window size")
	}
	if got, want := ab.Sets[3].GThr, a.Sets[3].GThr; got != want {
		t.Fatalf("merged global throttle threshold = %v, want the larger %v", got, want)
	}
}
