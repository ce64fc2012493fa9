package agent

import (
	"fmt"
	"math"
	"testing"

	"diverseav/internal/geom"
	"diverseav/internal/sensor"
	"diverseav/internal/vm"
)

// renderScene renders the three cameras for a straight road with the
// given obstacles.
func renderScene(t *testing.T, egoPose geom.Pose, obstacles []sensor.RenderObstacle, bars []sensor.StopBar) (c, l, r sensor.Frame) {
	t.Helper()
	sc := &sensor.Scene{
		EgoPose:         egoPose,
		RoadCenterAhead: func(float64) float64 { return 1.75 }, // road center half a lane left
		RoadHalfWidth:   3.5,
		LaneMarkOffsets: []float64{-3.5, 0, 3.5},
		Obstacles:       obstacles,
		StopBars:        bars,
		Step:            7,
		NoiseSeed:       99,
		NoiseStd:        1.2,
	}
	c = sensor.Render(sensor.CamCenter, sc, nil)
	l = sensor.Render(sensor.CamLeft, sc, nil)
	r = sensor.Render(sensor.CamRight, sc, nil)
	return c, l, r
}

func stepAgent(t *testing.T, a *Agent, speed float64, obstacles []sensor.RenderObstacle, bars []sensor.StopBar) Output {
	t.Helper()
	c, l, r := renderScene(t, geom.Pose{}, obstacles, bars)
	out, err := a.Step(&Input{
		Center: c, Left: l, Right: r,
		Speed: speed, Dt: 0.05, SpeedLimit: 12,
	})
	if err != nil {
		t.Fatalf("agent step: %v", err)
	}
	return out
}

func TestAgentAcceleratesOnEmptyRoad(t *testing.T) {
	a := New("test")
	out := stepAgent(t, a, 2.0, nil, nil)
	if out.Controls.Throttle <= 0.2 {
		t.Errorf("throttle = %v, want substantial acceleration toward the limit", out.Controls.Throttle)
	}
	if out.Controls.Brake != 0 {
		t.Errorf("brake = %v on empty road", out.Controls.Brake)
	}
	if math.Abs(out.Controls.Steer) > 0.15 {
		t.Errorf("steer = %v on straight road, want ≈ 0", out.Controls.Steer)
	}
	if out.ObstacleDist < 100 {
		t.Errorf("obstacle distance = %v on empty road, want far", out.ObstacleDist)
	}
}

func TestAgentDetectsLeadVehicle(t *testing.T) {
	a := New("test")
	lead := sensor.RenderObstacle{
		Pose:  geom.Pose{Pos: geom.V2(18, 0)},
		HalfL: 2.25, HalfW: 1.0,
	}
	var out Output
	// Several steps so the distance EMA settles.
	for i := 0; i < 6; i++ {
		out = stepAgent(t, a, 10, []sensor.RenderObstacle{lead}, nil)
	}
	if out.ObstacleDist > 30 || out.ObstacleDist < 8 {
		t.Errorf("obstacle distance = %v, want roughly 18 m (row-quantized)", out.ObstacleDist)
	}
	// At 18 m and 10 m/s the agent should at most hold speed, not pull
	// hard toward the 12 m/s limit as it does on an empty road.
	if out.Controls.Brake == 0 && out.Controls.Throttle > 0.6 {
		t.Errorf("agent not moderating for lead at 18 m: %+v", out.Controls)
	}
}

func TestAgentBrakesForCloseLead(t *testing.T) {
	a := New("test")
	lead := sensor.RenderObstacle{
		Pose:  geom.Pose{Pos: geom.V2(12, 0)},
		HalfL: 2.25, HalfW: 1.0,
	}
	var out Output
	for i := 0; i < 6; i++ {
		out = stepAgent(t, a, 10, []sensor.RenderObstacle{lead}, nil)
	}
	if out.Controls.Brake == 0 {
		t.Errorf("no braking for lead at 12 m and 10 m/s: %+v", out.Controls)
	}
}

func TestAgentPanicBrakesWhenClose(t *testing.T) {
	a := New("test")
	lead := sensor.RenderObstacle{
		Pose:  geom.Pose{Pos: geom.V2(7, 0)},
		HalfL: 2.25, HalfW: 1.0,
	}
	var out Output
	for i := 0; i < 4; i++ {
		out = stepAgent(t, a, 10, []sensor.RenderObstacle{lead}, nil)
	}
	if out.Controls.Brake < 0.9 || out.Controls.Throttle > 0 {
		t.Errorf("no panic brake at 7 m and 10 m/s: %+v", out.Controls)
	}
}

func TestAgentStopsForRedLightBar(t *testing.T) {
	a := New("test")
	var out Output
	for i := 0; i < 6; i++ {
		out = stepAgent(t, a, 9, nil, []sensor.StopBar{{Dist: 12}})
	}
	if out.ObstacleDist > 25 {
		t.Errorf("stop bar at 12 m not detected: dist = %v", out.ObstacleDist)
	}
	if out.Controls.Brake == 0 {
		t.Errorf("no braking for red light: %+v", out.Controls)
	}
}

func TestAgentIgnoresAdjacentLaneVehicle(t *testing.T) {
	a := New("test")
	// Vehicle fully in the left lane (lateral +3.5), outside the ego
	// corridor.
	adj := sensor.RenderObstacle{
		Pose:  geom.Pose{Pos: geom.V2(15, 3.5)},
		HalfL: 2.25, HalfW: 1.0,
	}
	var out Output
	for i := 0; i < 6; i++ {
		out = stepAgent(t, a, 10, []sensor.RenderObstacle{adj}, nil)
	}
	// The side cameras may register it very close in, but at 15 m ahead
	// in the adjacent lane the agent must not panic-brake.
	if out.Controls.Brake > 0.5 {
		t.Errorf("hard braking for adjacent-lane vehicle: %+v", out.Controls)
	}
}

func TestAgentSteersTowardLaneCenter(t *testing.T) {
	a := New("test")
	// Ego displaced half a meter to the right of its lane: road center
	// appears at +2.25 instead of +1.75, so it should steer left
	// (positive).
	sc := &sensor.Scene{
		EgoPose:         geom.Pose{},
		RoadCenterAhead: func(float64) float64 { return 2.25 },
		RoadHalfWidth:   3.5,
		LaneMarkOffsets: []float64{-3.5, 0, 3.5},
		Step:            3,
		NoiseSeed:       5,
		NoiseStd:        1.2,
	}
	c := sensor.Render(sensor.CamCenter, sc, nil)
	l := sensor.Render(sensor.CamLeft, sc, nil)
	r := sensor.Render(sensor.CamRight, sc, nil)
	var out Output
	var err error
	for i := 0; i < 8; i++ {
		out, err = a.Step(&Input{Center: c, Left: l, Right: r, Speed: 8, Dt: 0.05, SpeedLimit: 12})
		if err != nil {
			t.Fatal(err)
		}
	}
	if out.Controls.Steer <= 0.005 {
		t.Errorf("steer = %v, want positive (left) when displaced right", out.Controls.Steer)
	}
}

func TestAgentDeterminism(t *testing.T) {
	a1 := New("a")
	a2 := New("b")
	lead := sensor.RenderObstacle{Pose: geom.Pose{Pos: geom.V2(20, 0)}, HalfL: 2.25, HalfW: 1.0}
	for i := 0; i < 5; i++ {
		o1 := stepAgent(t, a1, 9, []sensor.RenderObstacle{lead}, nil)
		o2 := stepAgent(t, a2, 9, []sensor.RenderObstacle{lead}, nil)
		if o1 != o2 {
			t.Fatalf("identical agents diverged at step %d: %+v vs %+v", i, o1, o2)
		}
	}
}

func TestAgentWaypointsOnStraightRoad(t *testing.T) {
	a := New("test")
	var out Output
	for i := 0; i < 6; i++ {
		out = stepAgent(t, a, 8, nil, nil)
	}
	for i, wp := range out.Waypoints {
		if wp[0] <= 0 || wp[0] > 15 {
			t.Errorf("waypoint %d distance = %v", i, wp[0])
		}
		// The lane-center estimate should be ≈ 0 when lane-centered.
		if math.Abs(wp[1]) > 0.6 {
			t.Errorf("waypoint %d lateral = %v, want ≈ 0", i, wp[1])
		}
	}
}

func TestAgentInstrCountsStable(t *testing.T) {
	a := New("test")
	stepAgent(t, a, 8, nil, nil)
	cpu1 := a.Machine().InstrCount(vm.CPU)
	gpu1 := a.Machine().InstrCount(vm.GPU)
	stepAgent(t, a, 8, nil, nil)
	cpu2 := a.Machine().InstrCount(vm.CPU) - cpu1
	gpu2 := a.Machine().InstrCount(vm.GPU) - gpu1
	if cpu1 != cpu2 || gpu1 != gpu2 {
		t.Errorf("per-frame instruction counts not constant: cpu %d/%d gpu %d/%d",
			cpu1, cpu2, gpu1, gpu2)
	}
	if cpu1 == 0 || gpu1 == 0 {
		t.Error("zero instruction counts")
	}
	t.Logf("per-frame instructions: CPU=%d GPU=%d", cpu1, gpu1)
	if cpu1 > budgetCPUIn/2 || gpu1 > budgetGPU/2 {
		t.Errorf("nominal counts too close to hang budgets: cpu=%d gpu=%d", cpu1, gpu1)
	}
}

func TestLUTsMonotone(t *testing.T) {
	rowC := RowDistCenterLUT()
	for v := sensor.HorizonRow + 2; v < CenterH; v++ {
		if rowC[v] >= rowC[v-1] {
			t.Errorf("center row LUT not decreasing at %d: %v >= %v", v, rowC[v], rowC[v-1])
		}
	}
	col := ColLatLUT()
	for c := 1; c < GridW; c++ {
		if col[c] >= col[c-1] {
			t.Errorf("column LUT not decreasing at %d", c)
		}
	}
	// Left-of-center columns are positive lateral.
	if col[0] <= 0 || col[GridW-1] >= 0 {
		t.Errorf("column LUT sign convention wrong: %v .. %v", col[0], col[GridW-1])
	}
}

// BenchmarkStep measures one full pipeline step (marshal-in, vision and
// control, marshal-out; ~130k dynamic instructions) pinned to a VM tier:
// tier0 against tier1 is the fused-kernel speedup.
func BenchmarkStep(b *testing.B) {
	center, left, right := sensor.NewFrame(), sensor.NewFrame(), sensor.NewFrame()
	for i := range center {
		center[i], left[i], right[i] = byte(i*31), byte(i*17+5), byte(i*13+9)
	}
	for _, tier := range []int{0, 1} {
		b.Run(fmt.Sprintf("tier%d", tier), func(b *testing.B) {
			ag := New("bench")
			ag.Machine().SetMaxTier(tier)
			in := &Input{Center: center, Left: left, Right: right, Speed: 12, Dt: 0.05, SpeedLimit: 20}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				in.FrameIndex = i
				if _, err := ag.Step(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestMarshalReadsOnlySampleGrid pins the render grid to the read grid:
// staging memory marshalled from frames rendered on CenterGrid and
// SideGrid alone equals staging memory marshalled from full frames.
func TestMarshalReadsOnlySampleGrid(t *testing.T) {
	lead := sensor.RenderObstacle{Pose: geom.Pose{Pos: geom.V2(9, 1.2)}, HalfL: 2.25, HalfW: 1.0, Braking: true}
	side := sensor.RenderObstacle{Pose: geom.Pose{Pos: geom.V2(5, 6)}, HalfL: 2.25, HalfW: 1.0}
	sc := &sensor.Scene{
		EgoPose:         geom.Pose{},
		RoadCenterAhead: func(float64) float64 { return 1.75 },
		RoadHalfWidth:   3.5,
		LaneMarkOffsets: []float64{-3.5, 0, 3.5},
		Obstacles:       []sensor.RenderObstacle{lead, side},
		StopBars:        []sensor.StopBar{{Dist: 12}},
		Step:            3,
		NoiseSeed:       99,
		NoiseStd:        1.2,
	}
	full := &Input{
		Center: sensor.Render(sensor.CamCenter, sc, nil),
		Left:   sensor.Render(sensor.CamLeft, sc, nil),
		Right:  sensor.Render(sensor.CamRight, sc, nil),
	}
	sampled := &Input{
		Center: sensor.RenderGrid(sensor.CamCenter, sc, CenterGrid, nil),
		Left:   sensor.RenderGrid(sensor.CamLeft, sc, SideGrid, nil),
		Right:  sensor.RenderGrid(sensor.CamRight, sc, SideGrid, nil),
	}
	want := make([]float64, MemWords)
	got := make([]float64, MemWords)
	marshalInput(want, full)
	marshalInput(got, sampled)
	for i := AddrStage; i < AddrStage+stageLen; i++ {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("staging word %d = %v from sampled frames, %v from full frames", i, got[i], want[i])
		}
	}
}
