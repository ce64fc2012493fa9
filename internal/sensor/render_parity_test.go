package sensor

import (
	"bytes"
	"math"
	"testing"

	"diverseav/internal/geom"
)

// curvyScene builds a scene over a curved route, once with the closure
// road-center path and once with the cursor-based route path.
func curvyScene(withRoute bool) *Scene {
	pts, end := geom.Straight(nil, geom.V2(0, 0), 0, 60, 2)
	pts, _, _ = geom.Arc(pts, end, 0, 50, math.Pi/2, 1.5)
	route := geom.MustPolyline(pts)
	const st0 = 22.0
	pos, yaw := route.PoseAt(st0)
	ego := geom.Pose{Pos: pos, Yaw: yaw + 0.03}
	sc := &Scene{
		EgoPose:         ego,
		RoadHalfWidth:   3.5,
		LaneMarkOffsets: []float64{-3.5, 0, 3.5},
		Obstacles: []RenderObstacle{
			{Pose: geom.Pose{Pos: route.At(st0 + 25), Yaw: yaw}, HalfL: 2.2, HalfW: 0.9, Braking: true},
		},
		StopBars:  []StopBar{{Dist: 40}},
		Step:      7,
		NoiseSeed: 0xfeed,
		NoiseStd:  1.2,
	}
	if withRoute {
		sc.Route = route
		sc.RouteStation = st0
		sc.RouteCenterOffset = 1.75
	} else {
		sc.RoadCenterAhead = func(dist float64) float64 {
			local := ego.ToLocal(route.At(st0 + dist))
			return local.Y + 1.75
		}
	}
	return sc
}

// TestRenderRoutePathMatchesClosure pins the LUT/cursor fast path to the
// reference closure path: both must rasterize byte-identical frames for
// every camera, so the optimization cannot silently change sensor data.
func TestRenderRoutePathMatchesClosure(t *testing.T) {
	for cam := CameraID(0); cam < NumCameras; cam++ {
		want := Render(cam, curvyScene(false), nil)
		got := Render(cam, curvyScene(true), nil)
		if !bytes.Equal(want, got) {
			diff := 0
			for i := range want {
				if want[i] != got[i] {
					diff++
				}
			}
			t.Errorf("camera %s: route-path frame differs from closure-path frame in %d/%d bytes", cam, diff, len(want))
		}
	}
}

func BenchmarkRenderFrame(b *testing.B) {
	sc := curvyScene(true)
	dst := NewFrame()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Render(CamCenter, sc, dst)
	}
}

// ringScene is curvyScene with a ring of obstacles around the ego, near
// and far, so every camera sees boxes clipped at its left and right
// frame edges and at the bottom row, with odd and even top rows, some
// with brake lights lit, plus a stop bar close enough to cover many
// ground rows.
func ringScene(withRoute bool, step int) *Scene {
	sc := curvyScene(withRoute)
	sc.Step = step
	ego := sc.EgoPose
	for i, deg := 0, -85.0; deg <= 85; i, deg = i+1, deg+12.5 {
		for _, dist := range []float64{3.1, 6.7, 13.3} {
			yaw := ego.Yaw + deg*math.Pi/180
			off := geom.V2(math.Cos(yaw), math.Sin(yaw)).Scale(dist + float64(i%3)*0.37)
			sc.Obstacles = append(sc.Obstacles, RenderObstacle{
				Pose:    geom.Pose{Pos: ego.Pos.Add(off), Yaw: yaw + 0.2*float64(i%4)},
				HalfL:   2.2,
				HalfW:   0.9,
				Braking: i%2 == 0,
			})
		}
	}
	sc.StopBars = append(sc.StopBars, StopBar{Dist: 7.5})
	return sc
}

// TestRenderGridMatchesRender pins the sampled rasterizer to the full
// one: for every camera and grid, each grid pixel of RenderGrid equals
// Render's byte for byte, and every pixel off the grid keeps what dst
// held before the call.
func TestRenderGridMatchesRender(t *testing.T) {
	grids := []Grid{{2, 1}, {2, 2}, {3, 2}, {1, 3}}
	for _, withRoute := range []bool{true, false} {
		for _, step := range []int{0, 5} {
			sc := ringScene(withRoute, step)
			for cam := CameraID(0); cam < NumCameras; cam++ {
				checkEdgeCoverage(t, cam, sc)
				want := Render(cam, sc, nil)
				for _, g := range grids {
					got := NewFrame()
					for i := range got {
						got[i] = byte(i*7 + 3)
					}
					RenderGrid(cam, sc, g, got)
					for v := 0; v < FrameH; v++ {
						for u := 0; u < FrameW; u++ {
							i := (v*FrameW + u) * 3
							on := u%g.Col == 0 && v%g.Row == 0
							for c := i; c < i+3; c++ {
								if on && got[c] != want[c] {
									t.Fatalf("route=%v step %d camera %s grid %+v: pixel (%d,%d) byte %d = %d, Render has %d",
										withRoute, step, cam, g, u, v, c-i, got[c], want[c])
								}
								if !on && got[c] != byte(c*7+3) {
									t.Fatalf("route=%v step %d camera %s grid %+v: off-grid pixel (%d,%d) was written",
										withRoute, step, cam, g, u, v)
								}
							}
						}
					}
				}
			}
		}
	}
}

// checkEdgeCoverage fails the test unless the scene gives camera cam
// obstacles clipped at the left and right frame edges, boxes whose top
// row is odd, and a braking box in view: the cases where the obstacle
// loops must align their start to the grid.
func checkEdgeCoverage(t *testing.T, cam CameraID, sc *Scene) {
	t.Helper()
	var left, right, odd, brake bool
	for i := range sc.Obstacles {
		o := &sc.Obstacles[i]
		p, ok := Project(cam, sc.EgoPose, o)
		if !ok {
			continue
		}
		u0 := int(math.Floor(p.UC - p.Width/2))
		u1 := int(math.Ceil(p.UC + p.Width/2))
		v0 := int(math.Ceil(p.VBottom - p.Height))
		if u1 < 0 || u0 >= FrameW {
			continue
		}
		left = left || u0 < 0
		right = right || u1 >= FrameW
		odd = odd || (v0 > 0 && v0%2 == 1)
		brake = brake || o.Braking
	}
	if !left || !right || !odd || !brake {
		t.Fatalf("camera %s: scene lacks coverage (left-clipped %v, right-clipped %v, odd top row %v, braking %v)",
			cam, left, right, odd, brake)
	}
}

// BenchmarkRenderGrid renders the center camera's agent grid (every
// other column of every row, agent.CenterGrid), the campaign path's
// per-frame cost for that camera.
func BenchmarkRenderGrid(b *testing.B) {
	sc := curvyScene(true)
	dst := NewFrame()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RenderGrid(CamCenter, sc, Grid{Col: 2, Row: 1}, dst)
	}
}
