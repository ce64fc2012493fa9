package lab

import (
	"testing"

	"diverseav/internal/fi"
	"diverseav/internal/sim"
	"diverseav/internal/vm"
)

// BenchmarkCampaign measures one GPU campaign of the full LeadSlowdown in
// DiverseAV mode at seed 33 and DefaultSizes; the transient subs are the
// byte-identical execution ladder cold → fork → splice → batch (default).
// The golden set is seeded into a fresh lab every iteration, so
// memoization never short-circuits the campaign (a transient campaign's
// profile is included). steps/s counts restored and spliced steps too.
func BenchmarkCampaign(b *testing.B) {
	gspec := GoldenSpec{Scenario: "LeadSlowdown", Mode: sim.RoundRobin, N: 1, Seed: 1033}
	golden := New().Golden(gspec)
	perm := DefaultSizes()
	perm.PermStride = 6 // every sixth writeback opcode, as in BenchSizes
	for _, bc := range []struct {
		name string
		spec CampaignSpec
	}{
		{"transient-cold", CampaignSpec{CheckpointEvery: -1}},
		{"transient-fork", CampaignSpec{DisableSplice: true, LaneWidth: -1}},
		{"transient-splice", CampaignSpec{LaneWidth: -1}},
		{"transient-batch", CampaignSpec{}},
		{"transient-traced", CampaignSpec{Propagation: true}},
		{"permanent", CampaignSpec{Model: fi.Permanent, Sizes: perm}},
		{"sensorfault", CampaignSpec{Surface: fi.SurfaceSensor}},
		{"hallucinate", CampaignSpec{Surface: fi.SurfaceHallucinate}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			spec := bc.spec
			spec.Scenario, spec.Mode, spec.Target, spec.Seed, spec.Golden = gspec.Scenario, gspec.Mode, vm.GPU, 33, gspec
			if spec.Sizes == (Sizes{}) {
				spec.Sizes = DefaultSizes()
			}
			run := func() (steps int) {
				l := New()
				l.ProvideGolden(gspec, golden)
				for _, r := range l.Campaign(spec).Runs {
					steps += len(r.Result.Trace.Steps)
				}
				return steps
			}
			if spec.Model == fi.Transient && spec.CheckpointEvery >= 0 {
				run() // warm the checkpoint pool, as a long campaign's steady state
			}
			b.ReportAllocs()
			b.ResetTimer()
			steps := 0
			for i := 0; i < b.N; i++ {
				steps = run()
			}
			b.ReportMetric(float64(steps)*float64(b.N)/b.Elapsed().Seconds(), "steps/s")
		})
	}
	// One shareable profiling pass under the scoped fi.Profile observer.
	b.Run("profile", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			New().Profile(ProfileSpec{Scenario: gspec.Scenario, Mode: gspec.Mode, Seed: 33})
		}
	})
}
