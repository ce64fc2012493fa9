// Package geom provides the planar and spatial geometry primitives used by
// the world simulator, sensors, and analysis code: vectors, poses, angle
// arithmetic, polylines with arc-length parametrization, and oriented
// bounding boxes.
//
// The simulator world is two-dimensional (a top-down road plane); Vec3 is
// used where a height component matters (LiDAR returns, trajectory records
// that mirror the paper's ⟨x,y,z⟩ traces).
package geom

import "math"

// Vec2 is a point or direction in the road plane. X is east, Y is north,
// units are meters.
type Vec2 struct {
	X, Y float64
}

// V2 is shorthand for constructing a Vec2.
func V2(x, y float64) Vec2 { return Vec2{X: x, Y: y} }

// Add returns v + o.
func (v Vec2) Add(o Vec2) Vec2 { return Vec2{float64(v.X) + float64(o.X), float64(v.Y) + float64(o.Y)} }

// Sub returns v - o.
func (v Vec2) Sub(o Vec2) Vec2 { return Vec2{v.X - o.X, v.Y - o.Y} }

// Scale returns v scaled by s.
func (v Vec2) Scale(s float64) Vec2 { return Vec2{v.X * s, v.Y * s} }

// Dot returns the dot product v·o.
func (v Vec2) Dot(o Vec2) float64 { return v.X*o.X + v.Y*o.Y }

// Cross returns the z component of the 3-D cross product v×o. Its sign
// tells which side of v the vector o lies on (positive = left).
func (v Vec2) Cross(o Vec2) float64 { return v.X*o.Y - v.Y*o.X }

// Len returns the Euclidean norm of v.
func (v Vec2) Len() float64 { return math.Hypot(v.X, v.Y) }

// LenSq returns the squared norm of v, avoiding the square root.
func (v Vec2) LenSq() float64 { return v.X*v.X + v.Y*v.Y }

// Dist returns the Euclidean distance between v and o.
func (v Vec2) Dist(o Vec2) float64 { return v.Sub(o).Len() }

// DistSq returns the squared distance between v and o.
func (v Vec2) DistSq(o Vec2) float64 { return v.Sub(o).LenSq() }

// Norm returns v scaled to unit length. The zero vector is returned
// unchanged (there is no meaningful direction to preserve).
func (v Vec2) Norm() Vec2 {
	l := v.Len()
	if l == 0 {
		return v
	}
	return v.Scale(1 / l)
}

// Angle returns the heading of v in radians, measured counterclockwise
// from the +X axis, in (-π, π].
func (v Vec2) Angle() float64 { return math.Atan2(v.Y, v.X) }

// Rot returns v rotated counterclockwise by theta radians.
func (v Vec2) Rot(theta float64) Vec2 {
	s, c := math.Sincos(theta)
	return Vec2{v.X*c - v.Y*s, v.X*s + v.Y*c}
}

// Perp returns v rotated 90° counterclockwise.
func (v Vec2) Perp() Vec2 { return Vec2{-v.Y, v.X} }

// Lerp linearly interpolates between v (t=0) and o (t=1).
func (v Vec2) Lerp(o Vec2, t float64) Vec2 {
	return Vec2{v.X + (o.X-v.X)*t, v.Y + (o.Y-v.Y)*t}
}

// Vec3 is a point in 3-D space, used for LiDAR returns and trajectory
// records. Units are meters.
type Vec3 struct {
	X, Y, Z float64
}

// V3 is shorthand for constructing a Vec3.
func V3(x, y, z float64) Vec3 { return Vec3{X: x, Y: y, Z: z} }

// Add returns v + o.
func (v Vec3) Add(o Vec3) Vec3 { return Vec3{v.X + o.X, v.Y + o.Y, v.Z + o.Z} }

// Sub returns v - o.
func (v Vec3) Sub(o Vec3) Vec3 { return Vec3{v.X - o.X, v.Y - o.Y, v.Z - o.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Len returns the Euclidean norm of v.
func (v Vec3) Len() float64 { return math.Sqrt(v.X*v.X + v.Y*v.Y + v.Z*v.Z) }

// Dist returns the Euclidean distance between v and o.
func (v Vec3) Dist(o Vec3) float64 { return v.Sub(o).Len() }

// XY projects v onto the road plane.
func (v Vec3) XY() Vec2 { return Vec2{v.X, v.Y} }

// NormalizeAngle wraps an angle to (-π, π].
func NormalizeAngle(a float64) float64 {
	a = math.Mod(a, 2*math.Pi)
	switch {
	case a > math.Pi:
		a -= 2 * math.Pi
	case a <= -math.Pi:
		a += 2 * math.Pi
	}
	return a
}

// AngleDiff returns the smallest signed angle that rotates b onto a,
// in (-π, π].
func AngleDiff(a, b float64) float64 { return NormalizeAngle(a - b) }

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Pose is a position plus heading in the road plane.
type Pose struct {
	Pos Vec2
	Yaw float64 // radians, counterclockwise from +X
}

// Forward returns the unit vector in the pose's heading direction.
func (p Pose) Forward() Vec2 { return Vec2{math.Cos(p.Yaw), math.Sin(p.Yaw)} }

// Right returns the unit vector 90° clockwise from the heading.
func (p Pose) Right() Vec2 { return Vec2{math.Sin(p.Yaw), -math.Cos(p.Yaw)} }

// ToLocal transforms a world point into the pose's local frame
// (x forward, y left).
func (p Pose) ToLocal(world Vec2) Vec2 {
	d := world.Sub(p.Pos)
	return d.Rot(-p.Yaw)
}

// ToWorld transforms a point in the pose's local frame into world
// coordinates.
func (p Pose) ToWorld(local Vec2) Vec2 {
	return p.Pos.Add(local.Rot(p.Yaw))
}
