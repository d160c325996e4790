// Package geo provides the small 2-D geometry kernel used by the road map
// and mobility substrates: points in a metric plane (metres), linear
// interpolation, segments, polylines, and axis-aligned bounding boxes.
//
// The simulator's coordinate system is a local planar frame in metres, as in
// the ONE simulator's map files; no geodesy is involved at city scale.
package geo

import (
	"fmt"
	"math"
)

// Point is a position in the plane, in metres.
type Point struct {
	X, Y float64
}

// String renders the point as "(x, y)" with centimetre precision.
func (p Point) String() string {
	return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y)
}

// Add returns p translated by the vector q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns the vector from q to p.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns the point with both coordinates multiplied by k.
func (p Point) Scale(k float64) Point { return Point{p.X * k, p.Y * k} }

// Dist returns the Euclidean distance between p and q in metres.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance, avoiding the sqrt when
// only comparisons are needed (the contact-detection hot path).
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Lerp linearly interpolates from p to q; t=0 gives p, t=1 gives q.
// t outside [0,1] extrapolates.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Equal reports whether the points coincide to within eps metres
// per coordinate.
func (p Point) Equal(q Point, eps float64) bool {
	return math.Abs(p.X-q.X) <= eps && math.Abs(p.Y-q.Y) <= eps
}

// Segment is a directed straight road stretch from A to B.
type Segment struct {
	A, B Point
}

// Length returns the segment length in metres.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// At returns the point a fraction t along the segment (t in [0,1]).
func (s Segment) At(t float64) Point { return s.A.Lerp(s.B, t) }

// Polyline is a connected chain of points, the geometry of a route.
type Polyline []Point

// Length returns the total length of the polyline in metres.
func (pl Polyline) Length() float64 {
	total := 0.0
	for i := 1; i < len(pl); i++ {
		total += pl[i-1].Dist(pl[i])
	}
	return total
}

// Rect is an axis-aligned bounding box.
type Rect struct {
	Min, Max Point
}

// NewRect returns the rect spanning the two corner points in any order.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// Width returns the horizontal extent.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Contains reports whether p lies in the closed box.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Extend returns the smallest rect covering both r and p.
func (r Rect) Extend(p Point) Rect {
	return Rect{
		Min: Point{math.Min(r.Min.X, p.X), math.Min(r.Min.Y, p.Y)},
		Max: Point{math.Max(r.Max.X, p.X), math.Max(r.Max.Y, p.Y)},
	}
}

// Bounds returns the bounding box of a non-empty point set.
func Bounds(pts []Point) Rect {
	if len(pts) == 0 {
		panic("geo: Bounds of empty point set")
	}
	r := Rect{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		r = r.Extend(p)
	}
	return r
}
