// Package kitti generates a synthetic "recorded drive" dataset standing
// in for the KITTI dataset in the paper's §V-A characterization: a 10 Hz
// sequence with two front cameras, a LiDAR point cloud, IMU+GPS readings,
// and ground-truth 2-D/3-D object labels.
//
// The real KITTI data is not redistributable here; this generator is the
// substitution documented in DESIGN.md. What §V-A needs from the data is
// (a) realistic frame-to-frame motion of labeled objects (semantic
// consistency) and (b) realistic pixel/word-level change between
// consecutive frames (bit diversity); the generator produces both from a
// scripted multi-vehicle drive with real-world-grade sensor noise.
package kitti

import (
	"math"

	"diverseav/internal/geom"
	"diverseav/internal/rng"
	"diverseav/internal/sensor"
)

// Hz is the KITTI sensor frequency (all sensors at 10 Hz).
const Hz = 10.0

// Label is one object's ground truth in one frame.
type Label struct {
	ID int
	// U, V is the 2-D bounding-box center in pixel coordinates (center
	// camera).
	U, V float64
	// Center3D is the object center in the ego frame, meters (the 3-D
	// object label used for the LiDAR consistency statistic).
	Center3D geom.Vec3
	// Visible reports whether the object projects into the camera.
	Visible bool
}

// FrameData is one timestamp of the recorded drive.
type FrameData struct {
	Cams   [2]sensor.Frame // two front cameras (stereo rig)
	Lidar  []sensor.Point
	IMU    sensor.IMUGPS
	Labels []Label
}

// Config controls the generated drive.
type Config struct {
	Frames  int
	Objects int
	Seed    uint64
	// NoiseStd is the camera sensor noise (0..255 scale). Real-world
	// footage is noisier than the simulator's; the default calibrates
	// the per-pixel bit diversity toward the paper's KITTI numbers
	// (median 8 of 24 bits).
	NoiseStd float64
}

// DefaultConfig generates a 20-second drive with six tracked vehicles.
func DefaultConfig() Config {
	return Config{Frames: 200, Objects: 6, Seed: 2012, NoiseStd: 2.6}
}

// object is one scripted vehicle in the recording.
type object struct {
	lane  float64 // lateral offset from ego lane center
	x0    float64 // initial longitudinal position (ego frame at t=0)
	speed float64 // absolute speed, m/s
	weave float64 // lateral weave amplitude
	wfreq float64
	halfL float64
	halfW float64
}

// Generate produces the synthetic recorded drive.
func Generate(cfg Config) []FrameData {
	r := rng.New(cfg.Seed)
	egoSpeed := 10.0
	objs := make([]object, cfg.Objects)
	for i := range objs {
		lane := float64(i%3-1) * 3.5 // ego lane and both neighbors
		objs[i] = object{
			lane:  lane,
			x0:    8 + r.Range(0, 55),
			speed: egoSpeed + r.Range(-5, 5),
			weave: r.Range(0.1, 0.4),
			wfreq: r.Range(0.1, 0.4),
			halfL: 2.25,
			halfW: 1.0,
		}
		if lane == 0 {
			// In-lane vehicles keep a forward gap and similar speed so
			// the recording stays plausible (no scripted collisions).
			objs[i].x0 = 15 + r.Range(0, 60)
			objs[i].speed = egoSpeed + r.Range(-2.5, 2.5)
		}
	}

	imuRand := rng.New(cfg.Seed).Split("imu")
	lidarRand := rng.New(cfg.Seed).Split("lidar")
	lidar := sensor.NewLiDAR(256, lidarRand)
	// Real LiDAR returns are noisier than the simulator default.
	lidar.RangeStd = 0.05

	dt := 1.0 / Hz
	out := make([]FrameData, 0, cfg.Frames)
	for f := 0; f < cfg.Frames; f++ {
		t := float64(f) * dt
		egoX := float64(egoSpeed * t)
		// Small heading/mount vibration, as a moving vehicle has.
		egoPose := geom.Pose{
			Pos: geom.V2(egoX, float64(0.05*math.Sin(0.9*t))),
			Yaw: float64(0.010*math.Sin(1.3*t)) + float64(0.006*math.Sin(6.7*t)),
		}

		obstacles := make([]sensor.RenderObstacle, 0, len(objs))
		boxes := make([]geom.OBB, 0, len(objs))
		for _, o := range objs {
			pos := geom.V2(o.x0+float64(o.speed*t), o.lane+float64(o.weave*math.Sin(2*math.Pi*o.wfreq*t)))
			obstacles = append(obstacles, sensor.RenderObstacle{
				Pose:  geom.Pose{Pos: pos},
				HalfL: o.halfL,
				HalfW: o.halfW,
			})
			boxes = append(boxes, geom.OBB{Center: pos, HalfL: o.halfL, HalfW: o.halfW})
		}

		scene := &sensor.Scene{
			EgoPose:         egoPose,
			RoadCenterAhead: func(float64) float64 { return 0 },
			RoadHalfWidth:   5.25, // three lanes
			LaneMarkOffsets: []float64{-1.75, 1.75},
			Obstacles:       obstacles,
			Step:            f,
			NoiseSeed:       cfg.Seed,
			NoiseStd:        cfg.NoiseStd,
		}
		fd := FrameData{
			Cams: [2]sensor.Frame{
				sensor.Render(sensor.CamCenter, scene, nil),
				// The second camera of the stereo rig: same scene, its
				// own noise stream.
				sensor.Render(sensor.CamCenter, withNoise(*scene, cfg.Seed^0x57e6e0), nil),
			},
			Lidar: lidar.Scan(egoPose, boxes),
			IMU: sensor.IMUGPS{
				X:        float32(egoPose.Pos.X + imuRand.NormScaled(0, 0.08)),
				Y:        float32(egoPose.Pos.Y + imuRand.NormScaled(0, 0.08)),
				Speed:    float32(egoSpeed + imuRand.NormScaled(0, 0.05)),
				Accel:    float32(imuRand.NormScaled(0, 0.12)),
				YawRate:  float32(float64(0.013*math.Cos(1.3*t)) + float64(0.04*math.Cos(6.7*t)) + imuRand.NormScaled(0, 0.004)),
				YawAccel: float32(imuRand.NormScaled(0, 0.02)),
				Heading:  float32(egoPose.Yaw + imuRand.NormScaled(0, 0.003)),
			},
		}
		for id := range objs {
			ob := &obstacles[id]
			proj, vis := sensor.Project(sensor.CamCenter, egoPose, ob)
			u, v := proj.Center()
			local := egoPose.ToLocal(ob.Pose.Pos)
			fd.Labels = append(fd.Labels, Label{
				ID:       id,
				U:        u,
				V:        v,
				Center3D: geom.V3(local.X, local.Y, 0.8),
				Visible:  vis,
			})
		}
		out = append(out, fd)
	}
	return out
}

// withNoise returns a copy of the scene with a different noise stream
// (the second camera's sensor).
func withNoise(sc sensor.Scene, seed uint64) *sensor.Scene {
	sc.NoiseSeed = seed
	return &sc
}
