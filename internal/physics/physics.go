// Package physics implements vehicle dynamics and collision detection:
// a kinematic bicycle model driven by throttle/brake/steer actuation
// commands, lane-following kinematic controllers for NPC vehicles, and
// OBB-based collision checks. It is deliberately simple — the paper's
// experiments depend on closed-loop causality (commands change the
// trajectory, which changes sensing), not on tire models.
package physics

import (
	"math"

	"diverseav/internal/geom"
)

// Vehicle dimensional and dynamic constants, loosely a mid-size sedan.
const (
	VehicleLength = 4.5  // m
	VehicleWidth  = 2.0  // m
	Wheelbase     = 2.7  // m
	MaxAccel      = 3.5  // m/s², full throttle at low speed
	MaxBrake      = 8.0  // m/s², full brake
	MaxSteerAngle = 0.6  // rad, full steering lock
	DragCoeff     = 0.05 // 1/s, linear speed-proportional drag
	MaxSpeed      = 30.0 // m/s, drivetrain limit
)

// Controls are the actuation commands of the paper: throttle and brake in
// [0, 1] and steer in [-1, 1] (positive = left).
type Controls struct {
	Throttle float64 `json:"throttle"`
	Brake    float64 `json:"brake"`
	Steer    float64 `json:"steer"`
}

// Clamp returns the controls limited to their legal ranges; the vehicle
// model applies it defensively so corrupted agents cannot command
// impossible actuation.
func (c Controls) Clamp() Controls {
	return Controls{
		Throttle: clampFinite(c.Throttle, 0, 1),
		Brake:    clampFinite(c.Brake, 0, 1),
		Steer:    clampFinite(c.Steer, -1, 1),
	}
}

// clampFinite clamps and maps NaN to the range minimum (a NaN command is
// treated as "no command", the safest interpretation an actuator ECU
// could take).
func clampFinite(x, lo, hi float64) float64 {
	if math.IsNaN(x) {
		return lo
	}
	return geom.Clamp(x, lo, hi)
}

// State is the paper's vehicle state tuple ⟨v, a, ω, α⟩ plus pose.
type State struct {
	Pose     geom.Pose
	V        float64 // speed, m/s
	A        float64 // longitudinal acceleration, m/s²
	Omega    float64 // yaw rate, rad/s
	AlphaDot float64 // yaw acceleration, rad/s²
}

// Vehicle is a simulated vehicle: dynamic state plus footprint.
type Vehicle struct {
	Name  string
	State State
	// Half-extents of the collision footprint.
	HalfL, HalfW float64
}

// NewVehicle creates a standard-size vehicle at the given pose.
func NewVehicle(name string, pose geom.Pose) *Vehicle {
	return &Vehicle{
		Name:  name,
		State: State{Pose: pose},
		HalfL: VehicleLength / 2,
		HalfW: VehicleWidth / 2,
	}
}

// OBB returns the vehicle's current footprint.
func (v *Vehicle) OBB() geom.OBB {
	return geom.OBB{Center: v.State.Pose.Pos, HalfL: v.HalfL, HalfW: v.HalfW, Yaw: v.State.Pose.Yaw}
}

// Step advances the vehicle by dt seconds under the given controls using
// the kinematic bicycle model. Reverse is not modeled: speed saturates
// at zero under braking.
func (v *Vehicle) Step(c Controls, dt float64) {
	c = c.Clamp()
	s := &v.State

	accel := float64(c.Throttle*MaxAccel) - float64(c.Brake*MaxBrake) - float64(DragCoeff*s.V)
	newV := geom.Clamp(s.V+float64(accel*dt), 0, MaxSpeed)
	// Report the realized acceleration (after clamping), which is what
	// an IMU would measure.
	s.A = (newV - s.V) / dt
	s.V = newV

	steer := c.Steer * MaxSteerAngle
	newOmega := 0.0
	if s.V > 1e-6 {
		newOmega = s.V / Wheelbase * math.Tan(steer)
	}
	s.AlphaDot = (newOmega - s.Omega) / dt
	s.Omega = newOmega

	s.Pose.Yaw = geom.NormalizeAngle(s.Pose.Yaw + float64(s.Omega*dt))
	s.Pose.Pos = s.Pose.Pos.Add(s.Pose.Forward().Scale(s.V * dt))
}

// Teleport places the vehicle at a pose with the given speed, zeroing
// derived state. Used by scenario setup.
func (v *Vehicle) Teleport(pose geom.Pose, speed float64) {
	v.State = State{Pose: pose, V: speed}
}

// Collides reports whether the two vehicles' footprints overlap.
func Collides(a, b *Vehicle) bool { return a.OBB().Intersects(b.OBB()) }

// CVIP returns the distance to the closest vehicle in path: the nearest
// other vehicle within a corridor of the given half-width ahead of ego
// (up to maxRange), and whether one exists. This is the paper's
// closest-vehicle-in-path metric used in Fig 2.
func CVIP(ego *Vehicle, others []*Vehicle, corridorHalfWidth, maxRange float64) (float64, bool) {
	best := math.Inf(1)
	for _, o := range others {
		if o == ego {
			continue
		}
		local := ego.State.Pose.ToLocal(o.State.Pose.Pos)
		if local.X <= 0 || local.X > maxRange || math.Abs(local.Y) > corridorHalfWidth {
			continue
		}
		// Bumper-to-bumper distance along the corridor.
		d := local.X - ego.HalfL - o.HalfL
		if d < 0 {
			d = 0
		}
		if d < best {
			best = d
		}
	}
	return best, !math.IsInf(best, 1)
}
