package lab

import (
	"strings"
	"testing"

	"diverseav/internal/fi"
	"diverseav/internal/sim"
	"diverseav/internal/vm"
)

// TestSurfaceCampaignDiskRoundTrip: surface campaigns must survive the
// artifact wire format — run records carry their plan description in
// the Descs side table (fi.Plan stays zero), and a warm lab must serve
// the campaign from disk with identical labels, traces, activations and
// surface identity.
func TestSurfaceCampaignDiskRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	sc := shortLeadSlowdown()
	for _, surf := range []string{fi.SurfaceSensor, fi.SurfaceHallucinate} {
		for _, model := range []fi.Model{fi.Transient, fi.Permanent} {
			t.Run(surf+"-"+model.String(), func(t *testing.T) {
				dir := t.TempDir()
				spec := CampaignSpec{Scenario: sc.Name, Mode: sim.RoundRobin, Target: vm.GPU, Model: model, Sizes: shortSizes(), Seed: 55, Surface: surf}

				l1 := New()
				if err := l1.SetDisk(dir); err != nil {
					t.Fatal(err)
				}
				l1.RegisterScenario(sc)
				c1 := l1.Campaign(spec)
				if c1.Surface != surf {
					t.Fatalf("campaign surface %q, want %q", c1.Surface, surf)
				}
				if len(c1.Runs) == 0 {
					t.Fatal("surface campaign produced no runs")
				}
				for i, r := range c1.Runs {
					if r.Desc == "" || !strings.HasPrefix(r.Desc, surf+"-") {
						t.Fatalf("run %d: Desc %q lacks surface prefix", i, r.Desc)
					}
					if r.Label() != r.Desc {
						t.Fatalf("run %d: Label() = %q, want the surface desc %q", i, r.Label(), r.Desc)
					}
				}
				if row := c1.Table1Row(2); row.Target != surf {
					t.Errorf("Table1Row target %q, want the surface name", row.Target)
				}

				l2 := New()
				if err := l2.SetDisk(dir); err != nil {
					t.Fatal(err)
				}
				l2.RegisterScenario(sc)
				c2 := l2.Campaign(spec)
				if st := l2.Stats(); st.Computed != 0 {
					t.Errorf("warm lab recomputed %d artifacts (disk hits %d)", st.Computed, st.DiskHits)
				}
				if c2.Surface != surf {
					t.Errorf("decoded campaign surface %q, want %q", c2.Surface, surf)
				}
				if len(c1.Runs) != len(c2.Runs) {
					t.Fatalf("run counts differ: %d vs %d", len(c1.Runs), len(c2.Runs))
				}
				for i := range c1.Runs {
					if c1.Runs[i].Desc != c2.Runs[i].Desc {
						t.Errorf("run %d: desc changed across the disk round trip (%q vs %q)", i, c1.Runs[i].Desc, c2.Runs[i].Desc)
					}
					if a, b := traceHash(t, c1.Runs[i].Result.Trace), traceHash(t, c2.Runs[i].Result.Trace); a != b {
						t.Errorf("run %d: trace changed across the disk round trip", i)
					}
					if c1.Runs[i].Result.Activations != c2.Runs[i].Result.Activations {
						t.Errorf("run %d: activations changed across the disk round trip", i)
					}
				}
			})
		}
	}
}

// TestSurfaceCampaignLaneEquivalence extends the campaign-level lane
// invariant to surfaces: the default (lane groups) and cold
// (CheckpointEvery -1, every run from step 0) executions of the same
// transient surface campaign must produce identical run records — lane
// groups and splicing are pure strategy on the step-space surfaces too.
func TestSurfaceCampaignLaneEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	sc := shortLeadSlowdown()
	for _, surf := range []string{fi.SurfaceSensor, fi.SurfaceHallucinate} {
		t.Run(surf, func(t *testing.T) {
			spec := CampaignSpec{Scenario: sc.Name, Mode: sim.RoundRobin, Target: vm.GPU, Model: fi.Transient, Sizes: shortSizes(), Seed: 77, Surface: surf}
			cold := spec
			cold.CheckpointEvery = -1

			lb := New()
			lb.RegisterScenario(sc)
			batched := lb.Campaign(spec)
			ls := New()
			ls.RegisterScenario(sc)
			coldC := ls.Campaign(cold)

			if len(batched.Runs) != len(coldC.Runs) {
				t.Fatalf("run counts differ: %d batched vs %d cold", len(batched.Runs), len(coldC.Runs))
			}
			for i := range batched.Runs {
				if batched.Runs[i].Desc != coldC.Runs[i].Desc {
					t.Errorf("run %d: descs differ (%q vs %q)", i, batched.Runs[i].Desc, coldC.Runs[i].Desc)
				}
				if a, b := traceHash(t, batched.Runs[i].Result.Trace), traceHash(t, coldC.Runs[i].Result.Trace); a != b {
					t.Errorf("run %d (%s): batched trace diverged from cold", i, batched.Runs[i].Desc)
				}
				if batched.Runs[i].Result.Activations != coldC.Runs[i].Result.Activations {
					t.Errorf("run %d: activations %d batched, %d cold", i, batched.Runs[i].Result.Activations, coldC.Runs[i].Result.Activations)
				}
			}
		})
	}
}
