package diverseav_test

// One benchmark per table and figure of the paper's evaluation. Each
// regenerates its artifact at the fast benchmark scale
// (lab.BenchSizes) and prints the rows/series the paper reports;
// cmd/experiments produces the same sections at larger scale, and
// cmd/experiments -full at the paper's scale.
//
// Campaign-backed artifacts (Table I, Fig 7, Fig 8, §VI) share one study
// built lazily on first use, mirroring how the paper derives them all
// from the same injection campaigns.

import (
	"fmt"
	"sync"
	"testing"

	"diverseav/internal/kitti"
	"diverseav/internal/report"
	"diverseav/internal/scenario"
	"diverseav/internal/sim"
	"diverseav/internal/stats"
)

var (
	studyOnce sync.Once
	study     *report.Study
)

func sharedStudy(b *testing.B) *report.Study {
	b.Helper()
	studyOnce.Do(func() {
		study = report.NewStudy(report.BenchOptions())
	})
	return study
}

// emit prints a report section once per benchmark (not per iteration).
func emit(b *testing.B, i int, section string) {
	if i == 0 {
		fmt.Println(section)
	}
	_ = b
}

func BenchmarkFig5aKITTIBitDiversity(b *testing.B) {
	o := report.BenchOptions()
	for i := 0; i < b.N; i++ {
		emit(b, i, report.Fig5a(o))
	}
}

func BenchmarkFig5bSimBitDiversity(b *testing.B) {
	o := report.BenchOptions()
	for i := 0; i < b.N; i++ {
		emit(b, i, report.Fig5b(o))
	}
}

func BenchmarkSemanticConsistency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		seq := kitti.Generate(kitti.DefaultConfig())
		d := kitti.Measure(seq)
		if i == 0 {
			fmt.Printf("semantic consistency: bbox shift p50=%.2fpx p90=%.2fpx; 3-D shift p50=%.2fm p90=%.2fm\n\n",
				stats.Percentile(d.BBoxShift, 50), stats.Percentile(d.BBoxShift, 90),
				stats.Percentile(d.Center3DShift, 50), stats.Percentile(d.Center3DShift, 90))
		}
		b.ReportMetric(stats.Percentile(d.BBoxShift, 50), "bbox-p50-px")
	}
}

func BenchmarkFig2FaultFreeTraces(b *testing.B) {
	o := report.BenchOptions()
	for i := 0; i < b.N; i++ {
		emit(b, i, report.Fig2(o))
	}
}

func BenchmarkFig2FaultyTraces(b *testing.B) {
	// The faulty half of Fig 2 is produced by the same generator; this
	// benchmark isolates the faulty run's cost.
	o := report.BenchOptions()
	o.Seed++
	for i := 0; i < b.N; i++ {
		section := report.Fig2(o)
		if i == 0 {
			fmt.Println(section[len(section)/2:])
		}
	}
}

func BenchmarkFig6TrajectoryDivergence(b *testing.B) {
	o := report.BenchOptions()
	for i := 0; i < b.N; i++ {
		emit(b, i, report.Fig6(o))
	}
}

func BenchmarkTable1FaultInjection(b *testing.B) {
	s := sharedStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emit(b, i, s.Table1())
	}
}

func BenchmarkFig7PrecisionRecallGrid(b *testing.B) {
	s := sharedStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emit(b, i, s.Fig7())
	}
}

func BenchmarkFig8LeadDetectionTime(b *testing.B) {
	s := sharedStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emit(b, i, s.Fig8())
	}
}

func BenchmarkTable2ResourceOverhead(b *testing.B) {
	o := report.BenchOptions()
	for i := 0; i < b.N; i++ {
		emit(b, i, report.Table2(o))
	}
}

func BenchmarkMissedHazardProbability(b *testing.B) {
	s := sharedStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emit(b, i, s.MissedHazards())
	}
}

func BenchmarkFDBaseline(b *testing.B) {
	s := sharedStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emit(b, i, s.Comparisons())
	}
}

func BenchmarkSingleAgentBaseline(b *testing.B) {
	// The single-agent baseline shares the comparison table; this
	// benchmark measures its detector's evaluation in isolation via one
	// golden single-mode run.
	for i := 0; i < b.N; i++ {
		res := sim.Run(sim.Config{Scenario: scenario.LeadSlowdown(), Mode: sim.Single, Seed: 77})
		if i == 0 {
			fmt.Printf("single-agent golden run: outcome=%s steps=%d\n\n", res.Trace.Outcome, len(res.Trace.Steps))
		}
	}
}

func BenchmarkAblationDetector(b *testing.B) {
	s := sharedStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emit(b, i, s.AblationDetector())
	}
}

func BenchmarkAblationOverlap(b *testing.B) {
	o := report.BenchOptions()
	for i := 0; i < b.N; i++ {
		emit(b, i, report.AblationOverlap(o))
	}
}

func BenchmarkAblationECCOff(b *testing.B) {
	o := report.BenchOptions()
	for i := 0; i < b.N; i++ {
		emit(b, i, report.AblationECCOff(o))
	}
}

func BenchmarkSimulationStep(b *testing.B) {
	// Throughput of the full closed loop (render + 2 agents + physics),
	// the unit cost behind every campaign number.
	res := sim.Run(sim.Config{Scenario: scenario.LeadSlowdown(), Mode: sim.RoundRobin, Seed: 3})
	steps := len(res.Trace.Steps)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(sim.Config{Scenario: scenario.LeadSlowdown(), Mode: sim.RoundRobin, Seed: 3})
	}
	b.ReportMetric(float64(steps)*float64(b.N)/b.Elapsed().Seconds(), "steps/s")
}
