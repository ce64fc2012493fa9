// Package agent implements the Sensorimotor-style end-to-end AV agent of
// the paper (§IV-A): a high-level route planner, a vision-based local
// planner consuming three front cameras and predicting four local
// waypoints, and a waypoint tracker + PID control unit producing
// throttle/brake/steer.
//
// The perception and control math is compiled to programs on the
// simulated compute fabric (internal/vm): the vision planner runs on the
// GPU-class device and data marshaling runs on the CPU-class device,
// mirroring the paper's observation that the Sensorimotor agent "uses the
// GPU mostly for computations, whereas it uses the CPU for loading and
// setting up the program". All inter-frame agent state (PID integrator,
// distance filter, previous steering) lives in fabric memory, so injected
// faults corrupt it persistently, exactly like corrupted process state.
package agent

import "diverseav/internal/sensor"

// Sample pattern: the pixels of each camera the vision planner reads.
// It subsamples every camera by ColStride horizontally; the center
// camera keeps full vertical resolution (longitudinal distance accuracy
// comes from ground rows), while the side cameras are subsampled
// vertically too. marshalFrame reads through CenterGrid and SideGrid,
// and the simulator renders only those grids, so the rendered and the
// read pixels cannot drift apart.
const (
	ColStride       = 2
	CenterRowStride = 1
	SideRowStride   = 2
)

// CenterGrid and SideGrid are the sample pattern as render grids.
var (
	CenterGrid = sensor.Grid{Col: ColStride, Row: CenterRowStride}
	SideGrid   = sensor.Grid{Col: ColStride, Row: SideRowStride}
)

// Perception grid geometry.
const (
	GridW = sensor.FrameW / ColStride // 32 columns, all cameras
	// Center camera rows (full vertical resolution).
	CenterH = sensor.FrameH / CenterRowStride // 40
	// Side camera rows (half vertical resolution).
	SideH = sensor.FrameH / SideRowStride // 20

	CenterPx = GridW * CenterH // 1280
	SidePx   = GridW * SideH   // 640

	// Ground-row scan bounds on the center grid: rows strictly below the
	// horizon, smoothed rows only (the 3×3-cross conv needs one row of
	// margin).
	scanRow0 = sensor.HorizonRow + 2 // 20
	scanRow1 = sensor.FrameH - 2     // 38
)

// Fabric memory map (64-bit word addresses). Programs reference these
// constants and the host marshals through them.
const (
	// Scalar inputs written by the host each frame, and the CPU-made
	// working copy.
	AddrScalarIn   = 0 // +0 speed, +1 dt, +2 speed limit, +3 frame counter
	AddrScalarWork = 8

	// Staging image buffer (host-written) and working copy (CPU-copied).
	// Layout: center (1280 px), left (640), right (640), 3 channels each.
	AddrStage       = 16
	AddrStageCenter = AddrStage
	AddrStageLeft   = AddrStageCenter + CenterPx*3
	AddrStageRight  = AddrStageLeft + SidePx*3
	stageLen        = (CenterPx + 2*SidePx) * 3 // 7680

	AddrWork       = AddrStage + stageLen // 7696
	AddrWorkCenter = AddrWork
	AddrWorkLeft   = AddrWorkCenter + CenterPx*3
	AddrWorkRight  = AddrWorkLeft + SidePx*3

	// Obstacle-score grids.
	AddrGridCenter = AddrWork + stageLen // 15376
	AddrGridLeft   = AddrGridCenter + CenterPx
	AddrGridRight  = AddrGridLeft + SidePx

	// Smoothed center grid.
	AddrConv = AddrGridRight + SidePx // 17936

	// Road-ness grid (center camera; only the centroid rows are written).
	AddrRoad = AddrConv + CenterPx // 19216

	// Static LUTs, written once by the host at Init.
	AddrLutRowDistC = AddrRoad + CenterPx       // 20496: center rows → ground distance
	AddrLutRowDistS = AddrLutRowDistC + CenterH // 20536: side rows → ground distance
	AddrLutColLat   = AddrLutRowDistS + SideH   // 20556: column → lateral at unit distance

	// Persistent agent state.
	AddrState     = 20600
	offPIDInteg   = 0
	offPrevErr    = 1
	offEMADist    = 2
	offHeartbeat  = 3
	offPrevSteer  = 4
	offPrevWaypts = 5 // 8 words: 4 × (dist, lat)
	offFrameCount = 13
	offChecksum   = 14
	offConfidence = 15
	offPrevTarget = 16
	offPrevThr    = 17
	offPrevBrk    = 18

	// GPU outputs and the CPU-copied mailbox the host reads.
	AddrOut     = 20640 // +0 thr, +1 brk, +2 steer, +3 obstacle dist, +4..11 waypoints
	outLen      = 12
	AddrMailbox = 20660

	// MemWords is the machine memory size; headroom above the mailbox is
	// a guard region (in-range for corrupted-but-small addresses, so not
	// every address corruption becomes a segfault — matching the real
	// machines, where wild pointers sometimes land in mapped memory).
	MemWords = 24576
)

// Control tuning constants, chosen once and shared by every agent
// instance (the paper's two agents are instances of the same pretrained
// model).
const (
	ctrlKp        = 0.45 // speed PID proportional gain
	ctrlKi        = 0.06 // speed PID integral gain
	ctrlIntegClip = 4.0
	ctrlBrakeGain = 0.55 // maps negative accel command to brake
	ctrlDecel     = 3.8  // planned comfortable deceleration, m/s²
	ctrlMargin    = 8.0  // standoff distance to obstacles, m
	ctrlLatAccMax = 2.4  // comfort lateral acceleration for curve speed
	ctrlSteerMix  = 0.55 // low-pass blend weight of the previous steering
	ctrlEMA       = 0.55 // obstacle-distance EMA: weight of previous value
	scoreThresh   = 45.0 // obstacle-ness detection threshold
	bigDist       = 200.0
	corridorHalf  = 1.5 // ego-path corridor half-width, m
	wheelbase     = 2.7 // must match physics.Wheelbase
	maxSteerAngle = 0.6 // must match physics.MaxSteerAngle
	// laneTargetOff places the lane center relative to the detected right
	// road edge. Geometrically half a lane (1.75 m); calibrated down
	// because the edge scan finds the first road pixel just inside the
	// painted edge line, biasing the edge estimate left.
	laneTargetOff = 1.45
)

// Centroid rows on the center grid and the lane-centroid row count. Rows
// map to ground distances ≈ 10.0, 7.5, 5.0 and 3.3 m — the agent's four
// local waypoints, nearest last.
var centroidRows = [4]int{24, 26, 30, 36}

// RowDistCenterLUT returns the per-row ground distance for the center
// camera (full-resolution rows). Rows at/above the horizon get the
// far-range clip value; they are never scanned.
func RowDistCenterLUT() [CenterH]float64 {
	var lut [CenterH]float64
	for v := 0; v < CenterH; v++ {
		d := sensor.RowDistance(v)
		if d > sensor.MaxGroundDist {
			d = sensor.MaxGroundDist
		}
		lut[v] = d
	}
	return lut
}

// RowDistSideLUT returns the per-row ground distance for the side
// cameras (subsampled rows), measured along the camera axis.
func RowDistSideLUT() [SideH]float64 {
	var lut [SideH]float64
	for rg := 0; rg < SideH; rg++ {
		d := sensor.RowDistance(SideRowStride * rg)
		if d > sensor.MaxGroundDist {
			d = sensor.MaxGroundDist
		}
		lut[rg] = d
	}
	return lut
}

// ColLatLUT returns the per-column lateral offset at unit distance;
// multiply by a row's distance to get meters.
func ColLatLUT() [GridW]float64 {
	var lut [GridW]float64
	for cg := 0; cg < GridW; cg++ {
		lut[cg] = sensor.ColLateral(ColStride*cg, 1.0)
	}
	return lut
}
