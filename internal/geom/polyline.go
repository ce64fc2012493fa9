package geom

import (
	"fmt"
	"math"
)

// Polyline is an ordered sequence of waypoints with a precomputed
// arc-length parametrization. It is the backbone of lane centerlines and
// vehicle routes: positions along the line are addressed by distance from
// the start ("station"), and world positions project back to the nearest
// station.
type Polyline struct {
	pts []Vec2
	// cum[i] is the arc length from pts[0] to pts[i].
	cum []float64
}

// NewPolyline builds a polyline from at least two points. Consecutive
// duplicate points are dropped so every retained segment has positive
// length.
func NewPolyline(pts []Vec2) (*Polyline, error) {
	clean := make([]Vec2, 0, len(pts))
	for _, p := range pts {
		if n := len(clean); n > 0 && clean[n-1].DistSq(p) < 1e-18 {
			continue
		}
		clean = append(clean, p)
	}
	if len(clean) < 2 {
		return nil, fmt.Errorf("geom: polyline needs >= 2 distinct points, got %d", len(clean))
	}
	cum := make([]float64, len(clean))
	for i := 1; i < len(clean); i++ {
		cum[i] = cum[i-1] + clean[i].Dist(clean[i-1])
	}
	return &Polyline{pts: clean, cum: cum}, nil
}

// MustPolyline is NewPolyline but panics on error; for static route
// definitions whose validity is a programming invariant.
func MustPolyline(pts []Vec2) *Polyline {
	pl, err := NewPolyline(pts)
	if err != nil {
		panic(err)
	}
	return pl
}

// Length returns the total arc length of the polyline.
func (p *Polyline) Length() float64 { return p.cum[len(p.cum)-1] }

// Points returns the polyline's waypoints. The slice is shared; callers
// must not modify it.
func (p *Polyline) Points() []Vec2 { return p.pts }

// At returns the position at station s (clamped to [0, Length]).
func (p *Polyline) At(s float64) Vec2 {
	pos, _ := p.PoseAt(s)
	return pos
}

// PoseAt returns the position and tangent heading at station s
// (clamped to [0, Length]).
func (p *Polyline) PoseAt(s float64) (Vec2, float64) {
	s = Clamp(s, 0, p.Length())
	i := p.segmentIndex(s)
	a, b := p.pts[i], p.pts[i+1]
	segLen := p.cum[i+1] - p.cum[i]
	t := (s - p.cum[i]) / segLen
	dir := b.Sub(a)
	return a.Lerp(b, t), dir.Angle()
}

// segmentIndex returns i such that cum[i] <= s <= cum[i+1], by binary
// search.
func (p *Polyline) segmentIndex(s float64) int {
	lo, hi := 0, len(p.cum)-2
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if p.cum[mid] <= s {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// Project returns the station of the point on the polyline nearest to q,
// together with the signed lateral offset (positive = q is left of the
// line's direction of travel).
func (p *Polyline) Project(q Vec2) (station, lateral float64) {
	return p.projectRange(q, 0, len(p.pts)-1)
}

// projectRange is Project restricted to segments [lo, hi).
func (p *Polyline) projectRange(q Vec2, lo, hi int) (station, lateral float64) {
	best := math.Inf(1)
	for i := lo; i < hi; i++ {
		a, b := p.pts[i], p.pts[i+1]
		ab := b.Sub(a)
		t := Clamp(q.Sub(a).Dot(ab)/ab.LenSq(), 0, 1)
		pt := a.Lerp(b, t)
		d := q.DistSq(pt)
		if d < best {
			best = d
			station = p.cum[i] + float64(t*ab.Len())
			side := ab.Cross(q.Sub(a))
			lateral = math.Sqrt(d)
			if side < 0 {
				lateral = -lateral
			}
		}
	}
	return station, lateral
}

// projectFallbackDist is how far (meters) a windowed projection may sit
// from the line before ProjectNear distrusts the window and rescans the
// whole polyline.
const projectFallbackDist = 10.0

// ProjectNear is Project for callers that track their station over time
// (vehicle followers, the sim loop's ego projection): it searches only
// the segments whose stations lie within ±window meters of hint, which
// makes per-step projection cost independent of route length. If the
// windowed nearest point is suspiciously far from the line (the hint was
// stale or the vehicle teleported), it falls back to a full scan, so the
// result matches Project whenever q is genuinely near the hinted part of
// the line.
func (p *Polyline) ProjectNear(q Vec2, hint, window float64) (station, lateral float64) {
	lo := p.segmentIndex(Clamp(hint-window, 0, p.Length()))
	hi := p.segmentIndex(Clamp(hint+window, 0, p.Length())) + 1
	station, lateral = p.projectRange(q, lo, hi)
	// Station comparisons use a tolerance: stations are rebuilt from
	// t*segLen sums and may differ from cum by an ULP.
	const eps = 1e-9
	if lateral < -projectFallbackDist || lateral > projectFallbackDist ||
		(station <= p.cum[lo]+eps && lo > 0) || (station >= p.cum[hi]-eps && hi < len(p.pts)-1) {
		// Nearest point sits outside (or pinned to the edge of) the
		// window: the true nearest segment may lie beyond it.
		return p.projectRange(q, 0, len(p.pts)-1)
	}
	return station, lateral
}

// Cursor is a stateful reader of a Polyline for station queries that
// move by small amounts between calls (a rasterizer sweeping a ground
// row, a follower advancing along its path). It caches the last segment
// index and reuses it, making At/PoseAt amortized O(1) instead of
// O(log n), while returning bit-identical results to the Polyline
// methods.
type Cursor struct {
	p   *Polyline
	seg int
}

// NewCursor returns a cursor positioned at the start of the polyline.
func (p *Polyline) NewCursor() Cursor { return Cursor{p: p} }

// cursorSeekWindow bounds the linear walk before the cursor gives up and
// binary-searches; large jumps cost O(log n) instead of O(n).
const cursorSeekWindow = 64

// seek returns the segment index for station s (same invariant as
// segmentIndex: the greatest i with cum[i] <= s, capped at the last
// segment), starting the search from the cached segment.
func (c *Cursor) seek(s float64) int {
	p := c.p
	i := c.seg
	last := len(p.cum) - 2
	for n := 0; ; n++ {
		if n > cursorSeekWindow {
			i = p.segmentIndex(s)
			break
		}
		switch {
		case p.cum[i] > s && i > 0:
			i--
		case i < last && p.cum[i+1] <= s:
			i++
		default:
			c.seg = i
			return i
		}
	}
	c.seg = i
	return i
}

// At returns the position at station s (clamped), like Polyline.At.
// It is PoseAt without the heading's atan2, which the rasterizer's
// per-pixel road-center lookup does not need.
func (c *Cursor) At(s float64) Vec2 {
	p := c.p
	s = Clamp(s, 0, p.Length())
	i := c.seek(s)
	t := (s - p.cum[i]) / (p.cum[i+1] - p.cum[i])
	return p.pts[i].Lerp(p.pts[i+1], t)
}

// PoseAt returns the position and tangent heading at station s
// (clamped), like Polyline.PoseAt.
func (c *Cursor) PoseAt(s float64) (Vec2, float64) {
	p := c.p
	s = Clamp(s, 0, p.Length())
	i := c.seek(s)
	a, b := p.pts[i], p.pts[i+1]
	segLen := p.cum[i+1] - p.cum[i]
	t := (s - p.cum[i]) / segLen
	dir := b.Sub(a)
	return a.Lerp(b, t), dir.Angle()
}

// Arc appends a circular arc to pts: starting at `start` with heading
// `yaw`, turning through `sweep` radians (positive = left) at radius r,
// sampled every `step` meters of arc length. It returns the appended
// slice, the end point, and the end heading. Helper for building curved
// roads.
func Arc(pts []Vec2, start Vec2, yaw, r, sweep, step float64) ([]Vec2, Vec2, float64) {
	arcLen := math.Abs(sweep) * r
	n := int(math.Ceil(arcLen/step)) + 1
	if n < 2 {
		n = 2
	}
	// Center of the turning circle is perpendicular to the heading.
	side := 1.0
	if sweep < 0 {
		side = -1.0
	}
	center := start.Add(Vec2{math.Cos(yaw + float64(side*math.Pi/2)), math.Sin(yaw + float64(side*math.Pi/2))}.Scale(r))
	start0 := start.Sub(center).Angle()
	end := start
	endYaw := yaw
	for i := 1; i <= n; i++ {
		t := float64(i) / float64(n)
		a := start0 + float64(sweep*t)
		end = center.Add(Vec2{math.Cos(a), math.Sin(a)}.Scale(r))
		endYaw = NormalizeAngle(yaw + float64(sweep*t))
		pts = append(pts, end)
	}
	return pts, end, endYaw
}

// Straight appends a straight segment of the given length starting at
// `start` with heading `yaw`, sampled every `step` meters. It returns the
// appended slice and the end point (heading is unchanged).
func Straight(pts []Vec2, start Vec2, yaw, length, step float64) ([]Vec2, Vec2) {
	dir := Vec2{math.Cos(yaw), math.Sin(yaw)}
	n := int(math.Ceil(length/step)) + 1
	if n < 2 {
		n = 2
	}
	end := start
	for i := 1; i <= n; i++ {
		t := float64(i) / float64(n)
		end = start.Add(dir.Scale(length * t))
		pts = append(pts, end)
	}
	return pts, end
}
