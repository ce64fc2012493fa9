package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"diverseav/internal/scenario"
)

// traceHash is a content hash over the full serialized trace: every
// step's pose, kinematics, per-agent commands and CVIP, plus outcome
// and instruction counts. Two runs with equal hashes produced
// byte-identical behavior.
func traceHash(t *testing.T, cfg Config) string {
	t.Helper()
	res := Run(cfg)
	b, err := json.Marshal(res.Trace)
	if err != nil {
		t.Fatalf("marshal trace: %v", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// shortScenario returns a truncated copy of LeadSlowdown so the
// determinism matrix stays fast while still exercising NPC scripting,
// rendering, both agents and the control fusion path.
func shortScenario() *scenario.Scenario {
	sc := *scenario.LeadSlowdown()
	sc.Duration = 3
	return &sc
}

// TestRunDeterministic is the determinism regression test for the hot
// path: for every mode, the same seed must reproduce the exact same
// trace, and the parallel camera fan-out (par.ForEach over the worker
// pool) must be bit-identical to forced sequential rendering. This is
// the invariant that makes golden-run comparison, fault-injection
// control experiments, and detector training reproducible.
func TestRunDeterministic(t *testing.T) {
	sc := shortScenario()
	for _, mode := range []Mode{Single, RoundRobin, Duplicate} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			base := Config{Scenario: sc, Mode: mode, Seed: 99}
			h1 := traceHash(t, base)
			h2 := traceHash(t, base)
			if h1 != h2 {
				t.Fatalf("same-seed runs diverged: %s vs %s", h1, h2)
			}
			serial := base
			serial.SerialRender = true
			hs := traceHash(t, serial)
			if hs != h1 {
				t.Fatalf("parallel render diverged from serial render: %s vs %s", h1, hs)
			}
		})
	}
}

// TestRunOverlapDeterministic pins the overlap distributor path too,
// since it changes which agent state advances on which step.
func TestRunOverlapDeterministic(t *testing.T) {
	sc := shortScenario()
	base := Config{Scenario: sc, Mode: RoundRobin, Overlap: 0.25, Seed: 7}
	if h1, h2 := traceHash(t, base), traceHash(t, base); h1 != h2 {
		t.Fatalf("same-seed overlap runs diverged: %s vs %s", h1, h2)
	}
}

// TestRunAllocs bounds the steady-state allocation behavior of Run.
// After the fixed per-run setup (town, route, machines, frame buffers,
// preallocated trace), stepping must not allocate: the scene, obstacle
// slices, vehicle scratch and trace storage are all reused. The bound
// is far below one allocation per step — a 3 s run is 120 steps, so a
// regression that allocates per step (let alone per pixel or per
// instruction) blows past it immediately.
func TestRunAllocs(t *testing.T) {
	sc := shortScenario()
	cfg := Config{Scenario: sc, Mode: RoundRobin, Seed: 5, SerialRender: true}
	Run(cfg) // warm shared state (compiled programs, worker pool)
	allocs := testing.AllocsPerRun(3, func() { Run(cfg) })
	const maxAllocs = 100 // fixed setup cost; ~57 as of this writing
	if allocs > maxAllocs {
		t.Fatalf("sim.Run allocated %.0f times per run, want <= %d", allocs, maxAllocs)
	}
}

// TestReceives is the table-driven specification of the sensor data
// distributor (§III-D): which agent sees the frame of a given step, as
// a function of mode and the round-robin overlap fraction. overlap > 0
// duplicates every (1/overlap)-th frame to both agents (the paper's
// footnote on trading compute for a smaller input-rate reduction).
func TestReceives(t *testing.T) {
	cases := []struct {
		name    string
		mode    Mode
		overlap float64
		id      int
		// want[s] is whether the agent receives the frame at step s.
		want [8]bool
	}{
		{"single/agent0", Single, 0, 0,
			[8]bool{true, true, true, true, true, true, true, true}},
		{"single/agent1", Single, 0, 1,
			[8]bool{false, false, false, false, false, false, false, false}},
		{"duplicate/agent0", Duplicate, 0, 0,
			[8]bool{true, true, true, true, true, true, true, true}},
		{"duplicate/agent1", Duplicate, 0, 1,
			[8]bool{true, true, true, true, true, true, true, true}},
		// Pure round-robin: strict alternation, half rate each.
		{"rr/overlap0/agent0", RoundRobin, 0, 0,
			[8]bool{true, false, true, false, true, false, true, false}},
		{"rr/overlap0/agent1", RoundRobin, 0, 1,
			[8]bool{false, true, false, true, false, true, false, true}},
		// Overlap 0.25: every 4th frame goes to both, so the off-turn
		// agent additionally receives steps 0, 4, ...
		{"rr/overlap0.25/agent0", RoundRobin, 0.25, 0,
			[8]bool{true, false, true, false, true, false, true, false}},
		{"rr/overlap0.25/agent1", RoundRobin, 0.25, 1,
			[8]bool{true, true, false, true, true, true, false, true}},
		// Overlap 0.5: every 2nd frame to both — agent 0's schedule is
		// unchanged (its turn coincides with the duplicated frames),
		// agent 1 now sees every frame.
		{"rr/overlap0.5/agent0", RoundRobin, 0.5, 0,
			[8]bool{true, false, true, false, true, false, true, false}},
		{"rr/overlap0.5/agent1", RoundRobin, 0.5, 1,
			[8]bool{true, true, true, true, true, true, true, true}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for step := 0; step < len(tc.want); step++ {
				if got := receives(tc.mode, tc.overlap, tc.id, step); got != tc.want[step] {
					t.Errorf("receives(%v, %v, %d, %d) = %v, want %v",
						tc.mode, tc.overlap, tc.id, step, got, tc.want[step])
				}
			}
		})
	}
}

// BenchmarkSimRun measures closed-loop throughput over full LeadSlowdown
// runs at seed 3, the unit cost behind every campaign number. roundrobin
// against -serial is the camera fan-out against the inline render, and
// duplicate against -tier0 is the tier-1 kernel speedup.
func BenchmarkSimRun(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  Config
	}{
		{"roundrobin", Config{Mode: RoundRobin}},
		{"roundrobin-serial", Config{Mode: RoundRobin, SerialRender: true}},
		{"duplicate", Config{Mode: Duplicate}},
		{"duplicate-tier0", Config{Mode: Duplicate, ForceVMTier0: true}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := bc.cfg
			cfg.Scenario, cfg.Seed = scenario.LeadSlowdown(), 3
			steps := len(Run(cfg).Trace.Steps) // also warms compiled programs and the worker pool
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Run(cfg)
			}
			b.ReportMetric(float64(steps)*float64(b.N)/b.Elapsed().Seconds(), "steps/s")
		})
	}
}

// BenchmarkRunFrom measures one fork: LeadSlowdown resumed from its
// midpoint checkpoint (interval 50, the lab's default). steps/s counts
// the whole trace, half of it restored.
func BenchmarkRunFrom(b *testing.B) {
	cfg := Config{Scenario: scenario.LeadSlowdown(), Mode: RoundRobin, Seed: 3}
	res := Run(Config{Scenario: cfg.Scenario, Mode: cfg.Mode, Seed: cfg.Seed, CheckpointEvery: 50})
	cp := res.Checkpoints[len(res.Checkpoints)/2]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunFrom(cp, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Trace.Steps))*float64(b.N)/b.Elapsed().Seconds(), "steps/s")
}
