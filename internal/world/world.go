// Package world models the static driving environment: multi-lane roads
// with polyline centerlines, routes through them, traffic lights, and the
// three towns used by the long training routes plus the test track used
// by the safety-critical scenarios. It is the CARLA-map analogue of the
// reproduction.
package world

import (
	"fmt"

	"diverseav/internal/geom"
)

// LaneWidth is the standard lane width in meters.
const LaneWidth = 3.5

// Lane is one drivable lane: a centerline with a width. Vehicles track
// stations (arc-length positions) along the centerline.
type Lane struct {
	ID     string
	Center *geom.Polyline
	Width  float64
}

// PoseAt returns the pose on the lane centerline at the given station.
func (l *Lane) PoseAt(s float64) geom.Pose {
	pos, yaw := l.Center.PoseAt(s)
	return geom.Pose{Pos: pos, Yaw: yaw}
}

// Length returns the lane length in meters.
func (l *Lane) Length() float64 { return l.Center.Length() }

// LightState is a traffic light's current signal.
type LightState uint8

// Signal states.
const (
	Green LightState = iota
	Yellow
	Red
)

// String returns the state name.
func (s LightState) String() string {
	switch s {
	case Yellow:
		return "yellow"
	case Red:
		return "red"
	default:
		return "green"
	}
}

// TrafficLight controls a stop line at a station along a lane. The cycle
// is green → yellow → red, repeating, with a per-light phase offset.
type TrafficLight struct {
	LaneID    string
	Station   float64 // stop-line station along the lane
	GreenSec  float64
	YellowSec float64
	RedSec    float64
	PhaseSec  float64 // offset into the cycle at t = 0
}

// StateAt returns the signal at simulation time t (seconds).
func (tl *TrafficLight) StateAt(t float64) LightState {
	cycle := tl.GreenSec + tl.YellowSec + tl.RedSec
	if cycle <= 0 {
		return Green
	}
	phase := t + tl.PhaseSec
	phase -= float64(float64(int(phase/cycle)) * cycle)
	if phase < 0 {
		phase += cycle
	}
	switch {
	case phase < tl.GreenSec:
		return Green
	case phase < tl.GreenSec+tl.YellowSec:
		return Yellow
	default:
		return Red
	}
}

// Town is a named static map: lanes, traffic lights, and named routes.
type Town struct {
	Name   string
	Lanes  map[string]*Lane
	Lights []TrafficLight
	Routes map[string]*Route
}

// Route is a drivable path for the ego vehicle: an ordered lane
// traversal flattened into a single polyline, with speed-limit segments.
type Route struct {
	Name   string
	Path   *geom.Polyline
	LaneID string // primary lane the route follows (for light lookups)
	// SpeedLimits holds (station, limit m/s) breakpoints; the limit at a
	// station is the last breakpoint at or before it.
	SpeedLimits []SpeedLimit
}

// SpeedLimit is a speed-limit breakpoint along a route.
type SpeedLimit struct {
	Station float64
	Limit   float64
}

// LimitAt returns the speed limit at the given station (the final
// breakpoint's limit applies to the rest of the route; 13.9 m/s ≈ 50 km/h
// if no breakpoints are defined).
func (r *Route) LimitAt(s float64) float64 {
	limit := 13.9
	for _, sl := range r.SpeedLimits {
		if sl.Station <= s {
			limit = sl.Limit
		}
	}
	return limit
}

// Lane returns the lane by ID; ok reports whether it exists.
func (t *Town) Lane(id string) (*Lane, bool) {
	l, ok := t.Lanes[id]
	return l, ok
}

// Route returns the route by name, or an error naming the town for
// diagnosis.
func (t *Town) Route(name string) (*Route, error) {
	r, ok := t.Routes[name]
	if !ok {
		return nil, fmt.Errorf("world: town %s has no route %q", t.Name, name)
	}
	return r, nil
}

// NextLight returns the nearest traffic light on the lane strictly ahead
// of the station, and whether one exists.
func (t *Town) NextLight(laneID string, station float64) (*TrafficLight, bool) {
	var best *TrafficLight
	for i := range t.Lights {
		tl := &t.Lights[i]
		if tl.LaneID != laneID || tl.Station <= station {
			continue
		}
		if best == nil || tl.Station < best.Station {
			best = tl
		}
	}
	return best, best != nil
}

// addLane creates a lane from points and registers it.
func (t *Town) addLane(id string, pts []geom.Vec2) *Lane {
	l := &Lane{ID: id, Center: geom.MustPolyline(pts), Width: LaneWidth}
	t.Lanes[id] = l
	return l
}

// offsetLane builds a lane parallel to a path at the given signed lateral
// offset (positive = left of travel direction).
func offsetPath(pts []geom.Vec2, offset float64) []geom.Vec2 {
	out := make([]geom.Vec2, len(pts))
	for i, p := range pts {
		var dir geom.Vec2
		switch {
		case i == 0:
			dir = pts[1].Sub(pts[0])
		case i == len(pts)-1:
			dir = pts[i].Sub(pts[i-1])
		default:
			dir = pts[i+1].Sub(pts[i-1])
		}
		out[i] = p.Add(dir.Norm().Perp().Scale(offset))
	}
	return out
}
