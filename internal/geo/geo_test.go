package geo

import (
	"math"
	"testing"
	"testing/quick"
)

// The route walks below are the reference semantics for a point a
// distance along a route. The simulator's one walk, mobility.MapWalk,
// caches segment lengths per leg and must match them bit for bit (see
// its tests); these keep them pinned here.

// AtDistance returns the point d metres from A towards B, clamped to the
// segment endpoints.
func (s Segment) AtDistance(d float64) Point {
	l := s.Length()
	if l == 0 || d <= 0 {
		return s.A
	}
	if d >= l {
		return s.B
	}
	return s.At(d / l)
}

// AtDistance returns the point d metres along the polyline, clamped to the
// endpoints. An empty polyline panics; a single-point polyline returns that
// point.
func (pl Polyline) AtDistance(d float64) Point {
	if len(pl) == 0 {
		panic("geo: AtDistance on empty polyline")
	}
	if d <= 0 || len(pl) == 1 {
		return pl[0]
	}
	for i := 1; i < len(pl); i++ {
		seg := pl[i-1].Dist(pl[i])
		if d <= seg {
			return Segment{pl[i-1], pl[i]}.AtDistance(d)
		}
		d -= seg
	}
	return pl[len(pl)-1]
}

func TestDist(t *testing.T) {
	a := Point{0, 0}
	b := Point{3, 4}
	if d := a.Dist(b); d != 5 {
		t.Fatalf("Dist = %v, want 5", d)
	}
	if d := a.Dist2(b); d != 25 {
		t.Fatalf("Dist2 = %v, want 25", d)
	}
}

func TestDistSymmetricAndNonNegative(t *testing.T) {
	if err := quick.Check(func(ax, ay, bx, by float64) bool {
		a := Point{clamp(ax), clamp(ay)}
		b := Point{clamp(bx), clamp(by)}
		d1, d2 := a.Dist(b), b.Dist(a)
		return d1 == d2 && d1 >= 0
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTriangleInequality(t *testing.T) {
	if err := quick.Check(func(ax, ay, bx, by, cx, cy float64) bool {
		a := Point{clamp(ax), clamp(ay)}
		b := Point{clamp(bx), clamp(by)}
		c := Point{clamp(cx), clamp(cy)}
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-6
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// clamp maps arbitrary float64s (incl. NaN/Inf from quick) into a sane
// city-scale coordinate range.
func clamp(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 10000)
}

func TestLerpEndpoints(t *testing.T) {
	a, b := Point{1, 2}, Point{5, 10}
	if got := a.Lerp(b, 0); got != a {
		t.Fatalf("Lerp(0) = %v", got)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Fatalf("Lerp(1) = %v", got)
	}
	if got := a.Lerp(b, 0.5); got != (Point{3, 6}) {
		t.Fatalf("Lerp(0.5) = %v", got)
	}
}

func TestVectorOps(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, -1}
	if got := p.Add(q); got != (Point{4, 1}) {
		t.Fatalf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{-2, 3}) {
		t.Fatalf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{2, 4}) {
		t.Fatalf("Scale = %v", got)
	}
}

func TestSegmentAtDistance(t *testing.T) {
	s := Segment{Point{0, 0}, Point{10, 0}}
	cases := []struct {
		d    float64
		want Point
	}{
		{-1, Point{0, 0}},
		{0, Point{0, 0}},
		{4, Point{4, 0}},
		{10, Point{10, 0}},
		{15, Point{10, 0}},
	}
	for _, c := range cases {
		if got := s.AtDistance(c.d); !got.Equal(c.want, 1e-9) {
			t.Errorf("AtDistance(%v) = %v, want %v", c.d, got, c.want)
		}
	}
}

func TestZeroLengthSegment(t *testing.T) {
	s := Segment{Point{2, 2}, Point{2, 2}}
	if got := s.AtDistance(5); got != (Point{2, 2}) {
		t.Fatalf("degenerate segment AtDistance = %v", got)
	}
	if s.Length() != 0 {
		t.Fatalf("degenerate segment length = %v", s.Length())
	}
}

func TestPolylineLength(t *testing.T) {
	pl := Polyline{{0, 0}, {3, 4}, {3, 10}}
	if l := pl.Length(); math.Abs(l-11) > 1e-9 {
		t.Fatalf("polyline length = %v, want 11", l)
	}
	if l := (Polyline{{1, 1}}).Length(); l != 0 {
		t.Fatalf("single point length = %v", l)
	}
}

func TestPolylineAtDistance(t *testing.T) {
	pl := Polyline{{0, 0}, {10, 0}, {10, 10}}
	cases := []struct {
		d    float64
		want Point
	}{
		{0, Point{0, 0}},
		{5, Point{5, 0}},
		{10, Point{10, 0}},
		{15, Point{10, 5}},
		{20, Point{10, 10}},
		{99, Point{10, 10}},
	}
	for _, c := range cases {
		if got := pl.AtDistance(c.d); !got.Equal(c.want, 1e-9) {
			t.Errorf("AtDistance(%v) = %v, want %v", c.d, got, c.want)
		}
	}
}

func TestPolylineAtDistanceMonotone(t *testing.T) {
	pl := Polyline{{0, 0}, {50, 20}, {80, 20}, {80, 90}}
	total := pl.Length()
	prev := 0.0
	prevPt := pl.AtDistance(0)
	for d := 1.0; d <= total; d += 1.0 {
		pt := pl.AtDistance(d)
		step := prevPt.Dist(pt)
		// Walking 1m along the polyline moves at most 1m in the plane.
		if step > 1.0+1e-9 {
			t.Fatalf("step from d=%v to d=%v moved %v m", prev, d, step)
		}
		prev, prevPt = d, pt
	}
}

func TestPolylineAtDistanceEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty polyline did not panic")
		}
	}()
	Polyline{}.AtDistance(1)
}

func TestRect(t *testing.T) {
	r := NewRect(Point{10, 20}, Point{-5, 3})
	if r.Min != (Point{-5, 3}) || r.Max != (Point{10, 20}) {
		t.Fatalf("NewRect normalized wrong: %+v", r)
	}
	if r.Width() != 15 || r.Height() != 17 {
		t.Fatalf("extent wrong: %v x %v", r.Width(), r.Height())
	}
	if !r.Contains(Point{0, 10}) || r.Contains(Point{11, 10}) {
		t.Fatal("Contains wrong")
	}
}

func TestBounds(t *testing.T) {
	pts := []Point{{1, 1}, {4, -2}, {-3, 7}}
	r := Bounds(pts)
	if r.Min != (Point{-3, -2}) || r.Max != (Point{4, 7}) {
		t.Fatalf("Bounds = %+v", r)
	}
	for _, p := range pts {
		if !r.Contains(p) {
			t.Fatalf("Bounds does not contain %v", p)
		}
	}
}

func TestBoundsEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Bounds of empty set did not panic")
		}
	}()
	Bounds(nil)
}

func TestPointString(t *testing.T) {
	if got := (Point{1.5, -2}).String(); got != "(1.50, -2.00)" {
		t.Fatalf("String = %q", got)
	}
}
