package physics

import (
	"math"

	"diverseav/internal/geom"
)

// LaneFollower is the kinematic controller NPC vehicles use: it tracks a
// polyline at a commanded target speed using proportional longitudinal
// control and pure-pursuit steering. Scenarios script NPC behavior by
// changing TargetSpeed and the path over time.
type LaneFollower struct {
	Vehicle     *Vehicle
	Path        *geom.Polyline
	TargetSpeed float64
	// Lookahead for pure pursuit, meters.
	Lookahead float64
	// station caches the last projection to avoid scanning from zero.
	station float64
}

// NewLaneFollower creates a follower positioned at the given station on
// the path.
func NewLaneFollower(v *Vehicle, path *geom.Polyline, station, speed float64) *LaneFollower {
	pos, yaw := path.PoseAt(station)
	v.Teleport(geom.Pose{Pos: pos, Yaw: yaw}, speed)
	return &LaneFollower{
		Vehicle:     v,
		Path:        path,
		TargetSpeed: speed,
		Lookahead:   6.0,
		station:     station,
	}
}

// Station returns the follower's current arc-length position on its path.
func (f *LaneFollower) Station() float64 { return f.station }

// projectWindow bounds the follower's per-step projection search: a
// vehicle moves a fraction of a meter per 40 Hz step, so the nearest
// segment is always within a few meters of the cached station, and the
// windowed search keeps per-step cost independent of path length.
const projectWindow = 40.0

// Step advances the NPC by dt seconds toward its target speed along its
// path.
func (f *LaneFollower) Step(dt float64) {
	v := f.Vehicle
	st, _ := f.Path.ProjectNear(v.State.Pose.Pos, f.station, projectWindow)
	f.station = st

	// Longitudinal: proportional speed control mapped to throttle/brake.
	dv := f.TargetSpeed - v.State.V
	var c Controls
	switch {
	case dv > 0.05:
		c.Throttle = geom.Clamp(dv*0.6, 0, 1)
	case dv < -0.05:
		c.Brake = geom.Clamp(-dv*0.5, 0, 1)
	}

	// Lateral: pure pursuit on a lookahead point.
	look := f.Lookahead + float64(0.5*v.State.V)
	target := f.Path.At(st + look)
	local := v.State.Pose.ToLocal(target)
	if local.X > 0.1 {
		curvature := 2 * local.Y / (float64(local.X*local.X) + float64(local.Y*local.Y))
		steerAngle := math.Atan(curvature * Wheelbase)
		c.Steer = geom.Clamp(steerAngle/MaxSteerAngle, -1, 1)
	}
	v.Step(c, dt)
}

// EmergencyBrake commands a full stop; the follower brakes at its
// maximum rate until stationary.
func (f *LaneFollower) EmergencyBrake() { f.TargetSpeed = 0 }

// FollowerState is a snapshot of a LaneFollower: the vehicle's dynamic
// state plus the follower's control state. The path is captured by
// pointer — polylines are immutable after construction, so snapshots
// restored into many concurrent forks can share one path safely (this
// also preserves mid-run SwitchPath trajectories, which are built from
// the vehicle's pose at switch time and could not be regenerated later).
type FollowerState struct {
	Vehicle     State
	Path        *geom.Polyline
	TargetSpeed float64
	Lookahead   float64
	Station     float64
}

// Snapshot captures the follower's full state.
func (f *LaneFollower) Snapshot() FollowerState {
	return FollowerState{
		Vehicle:     f.Vehicle.State,
		Path:        f.Path,
		TargetSpeed: f.TargetSpeed,
		Lookahead:   f.Lookahead,
		Station:     f.station,
	}
}

// Restore rewinds the follower (and its vehicle) to a snapshot.
func (f *LaneFollower) Restore(st FollowerState) {
	f.Vehicle.State = st.Vehicle
	f.Path = st.Path
	f.TargetSpeed = st.TargetSpeed
	f.Lookahead = st.Lookahead
	f.station = st.Station
}

// SwitchPath moves the follower onto a new path (e.g., a cut-in
// trajectory), keeping its world pose.
func (f *LaneFollower) SwitchPath(p *geom.Polyline) {
	f.Path = p
	f.station, _ = p.Project(f.Vehicle.State.Pose.Pos)
}
