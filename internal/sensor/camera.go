package sensor

import (
	"math"

	"diverseav/internal/geom"
)

// Default camera geometry, shared by the rasterizer and the agent's
// perception LUTs.
const (
	FrameW = 64 // pixels
	FrameH = 40 // pixels
	// CamHeight is the camera mount height above the road, meters.
	CamHeight = 1.4
	// HorizonRow is the image row of the horizon.
	HorizonRow = 18
	// HFOVDeg and VFOVDeg are the per-camera fields of view.
	HFOVDeg = 60.0
	VFOVDeg = 50.0
	// MaxGroundDist clips the ground projection, meters.
	MaxGroundDist = 80.0
)

// Focal lengths in pixels, derived from the FOVs.
var (
	focalX = float64(FrameW) / 2 / math.Tan(HFOVDeg/2*math.Pi/180)
	focalY = float64(FrameH) / 2 / math.Tan(VFOVDeg/2*math.Pi/180)
)

// RowDistance returns the ground distance (meters along the view axis)
// imaged by pixel row v, or +Inf for rows at/above the horizon. Exported
// because the agent's perception uses the same projection as a static
// lookup table.
func RowDistance(v int) float64 {
	if v <= HorizonRow {
		return math.Inf(1)
	}
	d := CamHeight * focalY / float64(v-HorizonRow)
	if d > MaxGroundDist {
		return MaxGroundDist
	}
	return d
}

// ColLateral returns the lateral offset (meters, positive left) imaged by
// pixel column u at ground distance d.
func ColLateral(u int, d float64) float64 {
	return (float64(FrameW)/2 - 0.5 - float64(u)) / focalX * d
}

// Frame is one RGB24 camera image (FrameW × FrameH × 3 bytes, row-major).
type Frame []byte

// NewFrame allocates a frame.
func NewFrame() Frame { return make(Frame, FrameW*FrameH*3) }

// At returns the RGB bytes at (u, v).
func (f Frame) At(u, v int) (r, g, b uint8) {
	i := (v*FrameW + u) * 3
	return f[i], f[i+1], f[i+2]
}

func (f Frame) set(u, v int, r, g, b float64) {
	i := (v*FrameW + u) * 3
	f[i], f[i+1], f[i+2] = quantize(r), quantize(g), quantize(b)
}

// CameraID distinguishes the three front-facing cameras.
type CameraID int

// The agent's camera rig: left, center and right front-facing cameras,
// yawed like the Sensorimotor agent's rig.
const (
	CamLeft CameraID = iota
	CamCenter
	CamRight
	NumCameras
)

// YawOffset returns the camera's mounting yaw relative to the vehicle
// heading (radians, positive left).
func (c CameraID) YawOffset() float64 {
	switch c {
	case CamLeft:
		return 45 * math.Pi / 180
	case CamRight:
		return -45 * math.Pi / 180
	default:
		return 0
	}
}

// String names the camera.
func (c CameraID) String() string {
	switch c {
	case CamLeft:
		return "left"
	case CamRight:
		return "right"
	default:
		return "center"
	}
}

// RenderObstacle is a vehicle (or other box obstacle) visible to the
// cameras.
type RenderObstacle struct {
	Pose    geom.Pose
	HalfL   float64
	HalfW   float64
	Braking bool // rear brake lights lit
}

// StopBar is a red stop indication painted across the ego lane at a
// forward distance (the rasterizer's rendering of a red traffic signal's
// stop line).
type StopBar struct {
	Dist float64 // meters ahead of ego along the route
}

// Scene is everything the rasterizer needs for one frame.
type Scene struct {
	// EgoPose is the camera rig's vehicle pose.
	EgoPose geom.Pose
	// RoadCenterAhead maps forward distance (meters, ego frame) to the
	// road center's lateral offset in the ego frame (meters, positive
	// left). It is sampled per ground pixel to paint curved roads
	// correctly. When Route is non-nil the rasterizer ignores this and
	// uses the cursor-based route path instead, which computes the same
	// quantity without a closure round-trip per pixel.
	RoadCenterAhead func(dist float64) float64
	// Route is the ego-lane centerline; RouteStation is the ego's
	// station on it. When set, the road center lateral at forward
	// distance dist is ToLocal(Route.At(RouteStation+dist)).Y +
	// RouteCenterOffset, evaluated with an amortized-O(1) cursor over
	// the bounded station window [RouteStation, RouteStation +
	// MaxGroundDist] the frame can see.
	Route             *geom.Polyline
	RouteStation      float64
	RouteCenterOffset float64
	// RoadHalfWidth is the half-width of the drivable surface around the
	// road center (two lanes in all our maps).
	RoadHalfWidth float64
	// LaneMarkOffsets are lateral offsets (from road center) of painted
	// lane markings.
	LaneMarkOffsets []float64
	Obstacles       []RenderObstacle
	StopBars        []StopBar
	// Step is the frame index; NoiseSeed identifies the run. Together
	// they seed the per-frame sensor noise.
	Step      int
	NoiseSeed uint64
	// NoiseStd is the sensor noise amplitude on the 0..255 intensity
	// scale (uniform, ±2·NoiseStd peak). Calibrated so per-pixel bit
	// diversity matches the paper's Fig 5b.
	NoiseStd float64
}

// Surface base colors (0..255 RGB).
var (
	colGrass  = [3]float64{44, 92, 46}
	colRoad   = [3]float64{98, 98, 100}
	colMark   = [3]float64{205, 205, 200}
	colCar    = [3]float64{32, 44, 150} // NPC body: saturated blue
	colBrake  = [3]float64{225, 32, 28}
	colBar    = [3]float64{205, 24, 22}
	colSkyTop = [3]float64{110, 150, 210}
	colSkyBot = [3]float64{170, 195, 230}
)

// Projection is an obstacle's image-space footprint in one camera:
// center column, bottom row, width and height in pixels. It is used by
// the rasterizer and, as ground-truth 2-D labels, by the KITTI-like
// dataset generator.
type Projection struct {
	UC      float64 // box center column
	VBottom float64 // ground-contact row
	Width   float64
	Height  float64
}

// Center returns the bounding-box center in pixel coordinates.
func (p Projection) Center() (u, v float64) {
	return p.UC, p.VBottom - float64(p.Height/2)
}

// Project computes an obstacle's image footprint in the given camera, and
// whether it is in front of the camera within range.
func Project(cam CameraID, ego geom.Pose, o *RenderObstacle) (Projection, bool) {
	camPose := geom.Pose{Pos: ego.Pos, Yaw: ego.Yaw + cam.YawOffset()}
	local := camPose.ToLocal(o.Pose.Pos)
	if local.X <= 0.8 || local.X >= MaxGroundDist {
		return Projection{}, false
	}
	relYaw := geom.AngleDiff(o.Pose.Yaw, camPose.Yaw)
	halfW := float64(math.Abs(math.Cos(relYaw))*o.HalfW) + float64(math.Abs(math.Sin(relYaw))*o.HalfL)
	xNear := local.X - o.HalfL
	if xNear < 0.5 {
		xNear = 0.5
	}
	return Projection{
		UC:      float64(FrameW)/2 - 0.5 - focalX*local.Y/local.X,
		VBottom: float64(HorizonRow) + focalY*CamHeight/xNear,
		Width:   focalX * 2 * halfW / local.X,
		Height:  focalY * 1.5 / xNear,
	}, true
}

// Rasterizer lookup tables, computed once at package init. The ground
// ray (ex, ey) of a pixel — the camera-frame ray (RowDistance forward,
// ColLateral left) rotated by the camera's mounting yaw — depends only
// on (camera, row, column), and the sky gradient and cloud texture only
// on (row, column), so none of it needs recomputing per frame. The
// pixel-index halves of the per-frame noise hashes are likewise static:
// hash2(frameKey, k) is hash64(frameKey ^ hash64(k)), and hash64(k) is
// tabulated here.
const groundRows = FrameH - HorizonRow - 1

var (
	groundEx [NumCameras][groundRows * FrameW]float64
	groundEy [NumCameras][groundRows * FrameW]float64
	skyCol   [HorizonRow + 1][3]float64
	skyCloud [(HorizonRow + 1) * FrameW]float64
	// pixHash[i] = hash64(i); pixHashOb[i] = hash64(i + 0x5bd1), the
	// obstacle-noise variant.
	pixHash   [FrameW * FrameH]uint64
	pixHashOb [FrameW * FrameH]uint64
)

func init() {
	for i := range pixHash {
		pixHash[i] = hash64(uint64(i))
		pixHashOb[i] = hash64(uint64(i) + 0x5bd1)
	}
	for v := 0; v <= HorizonRow; v++ {
		t := float64(v) / float64(HorizonRow)
		skyCol[v][0] = colSkyTop[0] + float64((colSkyBot[0]-colSkyTop[0])*t)
		skyCol[v][1] = colSkyTop[1] + float64((colSkyBot[1]-colSkyTop[1])*t)
		skyCol[v][2] = colSkyTop[2] + float64((colSkyBot[2]-colSkyTop[2])*t)
		for u := 0; u < FrameW; u++ {
			skyCloud[v*FrameW+u] = 6 * noiseUnit(hash2(uint64(u/8), uint64(v/4)+977))
		}
	}
	for cam := CameraID(0); cam < NumCameras; cam++ {
		sinY, cosY := math.Sincos(cam.YawOffset())
		for v := HorizonRow + 1; v < FrameH; v++ {
			d := RowDistance(v)
			for u := 0; u < FrameW; u++ {
				lat := ColLateral(u, d)
				gi := (v-HorizonRow-1)*FrameW + u
				groundEx[cam][gi] = float64(d*cosY) - float64(lat*sinY)
				groundEy[cam][gi] = float64(d*sinY) + float64(lat*cosY)
			}
		}
	}
}

// Grid is a pixel sample grid: the columns that are multiples of Col in
// the rows that are multiples of Row. A consumer that reads only part of
// a frame (the agent's vision planner subsamples every camera) asks
// RenderGrid for just those pixels.
type Grid struct {
	Col, Row int
}

// FullGrid samples every pixel.
var FullGrid = Grid{Col: 1, Row: 1}

// gridStart returns the first multiple of stride at or above max(lo, 0):
// where a loop over a grid's rows or columns starts inside [lo, …).
func gridStart(lo, stride int) int {
	lo = max(lo, 0)
	return (lo + stride - 1) / stride * stride
}

// Render rasterizes the whole frame from the given camera into dst
// (allocated if nil) and returns it: RenderGrid over FullGrid.
func Render(cam CameraID, sc *Scene, dst Frame) Frame {
	return RenderGrid(cam, sc, FullGrid, dst)
}

// RenderGrid rasterizes the pixels of grid g from the given camera into
// dst (allocated if nil) and returns it. A pixel's bytes depend only on
// (camera, u, v, scene), so every grid pixel is byte-identical to
// Render's; pixels off the grid keep whatever dst held. RenderGrid does
// not mutate the scene, so the three cameras of one frame may render
// concurrently into disjoint frames.
func RenderGrid(cam CameraID, sc *Scene, grid Grid, dst Frame) Frame {
	if grid.Col < 1 || grid.Row < 1 {
		panic("sensor: RenderGrid: grid strides must be positive")
	}
	if dst == nil {
		dst = NewFrame()
	}
	du, dv := grid.Col, grid.Row
	camYaw := cam.YawOffset()
	frameKey := hash2(sc.NoiseSeed, uint64(sc.Step)<<3|uint64(cam))
	noiseAmp := sc.NoiseStd * 2

	// Sky rows.
	for v := 0; v <= HorizonRow; v += dv {
		r, g, b := skyCol[v][0], skyCol[v][1], skyCol[v][2]
		row := v * FrameW
		for u := 0; u < FrameW; u += du {
			n := float64(noiseAmp * noiseUnit(hash64(frameKey^pixHash[row+u])))
			cl := skyCloud[row+u]
			dst.set(u, v, r+n+cl, g+n+cl, b+n+cl)
		}
	}

	// Ground rows. The per-frame trig is hoisted: sT/cT rotate world
	// deltas into the ego frame (Pose.ToLocal's Rot(-yaw)) for the road
	// center, sW/cW rotate ego-frame rays into the world (Pose.ToWorld)
	// for the world-anchored texture.
	sT, cT := math.Sincos(-sc.EgoPose.Yaw)
	sW, cW := math.Sincos(sc.EgoPose.Yaw)
	px, py := sc.EgoPose.Pos.X, sc.EgoPose.Pos.Y
	exLUT := &groundEx[cam]
	eyLUT := &groundEy[cam]
	useRoute := sc.Route != nil
	var cur geom.Cursor
	if useRoute {
		cur = sc.Route.NewCursor()
	}
	// The road center depends only on ex, and ex repeats across a row
	// for the unyawed camera (and at row ends for clipped rays), so one
	// memo slot removes most station lookups.
	lastEx := math.Inf(-1)
	var lastCenter float64
	for v := gridStart(HorizonRow+1, dv); v < FrameH; v += dv {
		gi := (v - HorizonRow - 1) * FrameW
		row := v * FrameW
		for u := 0; u < FrameW; u += du {
			ex := exLUT[gi+u]
			ey := eyLUT[gi+u]
			// Ground point in world frame.
			wx := px + (float64(ex*cW) - float64(ey*sW))
			wy := py + (float64(ex*sW) + float64(ey*cW))
			var r, g, b float64
			if ex <= 0.3 {
				r, g, b = colGrass[0], colGrass[1], colGrass[2]
			} else {
				var center float64
				switch {
				case ex == lastEx:
					center = lastCenter
				case useRoute:
					// Same math as the sim's RoadCenterAhead closure:
					// the route point at station RouteStation+ex,
					// rotated into the ego frame, plus the lane offset.
					p := cur.At(sc.RouteStation + ex)
					center = float64((p.X-px)*sT) + float64((p.Y-py)*cT) + sc.RouteCenterOffset
				default:
					center = sc.RoadCenterAhead(ex)
				}
				lastEx, lastCenter = ex, center
				laneLat := ey - center
				switch {
				case math.Abs(laneLat) > sc.RoadHalfWidth:
					r, g, b = colGrass[0], colGrass[1], colGrass[2]
				default:
					r, g, b = colRoad[0], colRoad[1], colRoad[2]
					for _, mo := range sc.LaneMarkOffsets {
						if math.Abs(laneLat-mo) < 0.12 {
							// Center markings are dashed (2 m dash, 2 m
							// gap) anchored in world space so they sweep
							// through the image as the vehicle moves;
							// edge markings are solid.
							if mo == 0 && int(math.Floor((wx+wy)/2))%2 != 0 {
								continue
							}
							r, g, b = colMark[0], colMark[1], colMark[2]
						}
					}
					for _, sb := range sc.StopBars {
						if math.Abs(ex-sb.Dist) < 0.9 && math.Abs(laneLat) < sc.RoadHalfWidth {
							r, g, b = colBar[0], colBar[1], colBar[2]
						}
					}
				}
			}
			// World-anchored texture makes consecutive frames bit-diverse
			// as the vehicle moves.
			tex := float64(7 * worldTexture(wx, wy))
			n := float64(noiseAmp * noiseUnit(hash64(frameKey^pixHash[row+u])))
			dst.set(u, v, r+tex+n, g+tex+n, b+tex+n)
		}
	}

	// Obstacles, far to near (painter's algorithm). The depth list lives
	// on the stack for typical obstacle counts.
	type proj struct {
		x float64 // camera-frame forward distance
		o *RenderObstacle
	}
	var projBuf [16]proj
	projs := projBuf[:0]
	camPose := geom.Pose{Pos: sc.EgoPose.Pos, Yaw: sc.EgoPose.Yaw + camYaw}
	for i := range sc.Obstacles {
		o := &sc.Obstacles[i]
		local := camPose.ToLocal(o.Pose.Pos)
		if local.X > 0.8 && local.X < MaxGroundDist {
			projs = append(projs, proj{local.X, o})
		}
	}
	// Insertion sort, descending x: obstacle counts are tiny and this
	// avoids sort.Slice's closure allocation in the per-frame path.
	for i := 1; i < len(projs); i++ {
		for j := i; j > 0 && projs[j-1].x < projs[j].x; j-- {
			projs[j-1], projs[j] = projs[j], projs[j-1]
		}
	}
	for _, pr := range projs {
		o := pr.o
		proj, ok := Project(cam, sc.EgoPose, o)
		if !ok {
			continue
		}
		u0 := int(math.Floor(proj.UC - float64(proj.Width/2)))
		u1 := int(math.Ceil(proj.UC + float64(proj.Width/2)))
		v1 := int(math.Floor(proj.VBottom))
		v0 := int(math.Ceil(proj.VBottom - proj.Height))
		if v1 >= FrameH {
			v1 = FrameH - 1
		}
		if v0 < 0 {
			v0 = 0
		}
		brakeTop := proj.VBottom - float64(0.35*proj.Height)
		// The shading hash is keyed on the offset from (u0, v0), so the
		// loops start at the first grid pixel inside the box and leave
		// u0 and v0 as they are.
		uEnd := min(u1, FrameW-1)
		for v := gridStart(v0, dv); v <= v1; v += dv {
			for u := gridStart(u0, du); u <= uEnd; u += du {
				r, g, b := colCar[0], colCar[1], colCar[2]
				if o.Braking && float64(v) >= brakeTop {
					r, g, b = colBrake[0], colBrake[1], colBrake[2]
				}
				// Body shading varies with surface position (anchored to
				// the obstacle, so it moves with it) plus sensor noise.
				sh := float64(8 * noiseUnit(hash2(uint64(u-u0), uint64(v-v0)+31)))
				n := float64(noiseAmp * noiseUnit(hash64(frameKey^pixHashOb[v*FrameW+u])))
				dst.set(u, v, r+sh+n, g+sh+n, b+sh+n)
			}
		}
	}
	return dst
}
