package mobility

import (
	"math"
	"testing"

	"vdtn/internal/geo"
	"vdtn/internal/roadmap"
	"vdtn/internal/units"
	"vdtn/internal/xrand"
)

// referenceAt is the route walk MapWalk ran before it cached segment
// lengths: every query measures every segment from the start, subtracts
// the ones d exceeds, and interpolates the segment it ends on, clamped to
// the segment's ends. MapWalk's positions must equal it bit for bit.
func referenceAt(pl geo.Polyline, d float64) geo.Point {
	if d <= 0 || len(pl) == 1 {
		return pl[0]
	}
	for i := 1; i < len(pl); i++ {
		a, b := pl[i-1], pl[i]
		seg := a.Dist(b)
		if d <= seg {
			switch {
			case seg == 0 || d <= 0:
				return a
			case d >= seg:
				return b
			}
			return a.Lerp(b, d/seg)
		}
		d -= seg
	}
	return pl[len(pl)-1]
}

// randomRoute returns a route of 1 to 9 points. Steps mix city-scale and
// millimetre lengths, and about one step in five repeats the previous
// point, so zero-length segments and single-point routes occur.
func randomRoute(r *xrand.Rand) geo.Polyline {
	pl := geo.Polyline{{X: r.UniformFloat(-5000, 5000), Y: r.UniformFloat(-5000, 5000)}}
	for n := r.IntN(9); n > 0; n-- {
		last := pl[len(pl)-1]
		switch {
		case r.Bool(0.2):
			pl = append(pl, last)
		case r.Bool(0.3):
			pl = append(pl, last.Add(geo.Point{X: r.UniformFloat(-1e-3, 1e-3), Y: r.UniformFloat(-1e-3, 1e-3)}))
		case r.Bool(0.5):
			pl = append(pl, last.Add(geo.Point{X: r.UniformFloat(-800, 800), Y: r.UniformFloat(-800, 800)}))
		default: // across the origin, where b-a rounds and a+(b-a) may miss b
			pl = append(pl, geo.Point{X: r.UniformFloat(-5000, 5000), Y: r.UniformFloat(-5000, 5000)})
		}
	}
	return pl
}

// TestMapWalkMatchesReferenceWalk drives Position over random injected
// routes with non-decreasing query times: repeats of the same instant,
// steps back by the 1e-9 tolerance, tiny and large steps, times before the
// leg starts and past its end, and jumps to the time the walk reaches a
// vertex, exactly or just past it and then back within the tolerance.
// Every point must equal referenceAt. Half the legs start at time 0 at
// speed 1, so a jump to the first vertex lands exactly on its end.
func TestMapWalkMatchesReferenceWalk(t *testing.T) {
	r := xrand.New(23)
	for trial := 0; trial < 3000; trial++ {
		pl := randomRoute(r)
		w := &MapWalk{speed: 1, arrival: math.Inf(1)}
		if trial%2 == 1 {
			w.speed, w.legStart = r.UniformFloat(1, 20), r.UniformFloat(0, 100)
		}
		w.setRoute(pl)
		w.lastQuery = w.legStart - 1
		// vertexTime returns when the walk reaches the first vertex beyond
		// now, or now when none is left.
		vertexTime := func(now float64) float64 {
			cum := 0.0
			for _, seg := range w.segLen {
				if cum += seg; w.legStart+cum/w.speed > now {
					return w.legStart + cum/w.speed
				}
			}
			return now
		}
		now := w.lastQuery
		check := func(q int) {
			want := referenceAt(pl, w.speed*(now-w.legStart))
			if got := w.Position(now); got != want {
				t.Fatalf("trial %d query %d: route %v, t=%v: got %v, want %v",
					trial, q, pl, now, got, want)
			}
		}
		for q := 0; q < 60; q++ {
			switch k := r.IntN(12); {
			case k == 0: // same instant again
			case k == 1:
				now -= timeTolerance
			case k == 2:
				now += r.UniformFloat(0, 1e-6)
			case k == 3:
				now = vertexTime(now)
			case k == 4:
				now = vertexTime(now) + timeTolerance/2
				check(q)
				now -= timeTolerance
			default:
				now += r.UniformFloat(0, 1.3*pl.Length()/w.speed/20+1e-3)
			}
			check(q)
		}
	}
}

// TestMapWalkLegsMatchReferenceWalk checks real walks on the Helsinki-like
// map, sampled every second for three hours: every driving position equals
// referenceAt on the leg's route.
func TestMapWalkLegsMatchReferenceWalk(t *testing.T) {
	g := roadmap.HelsinkiLike()
	for seed := uint64(1); seed <= 4; seed++ {
		w := NewMapWalk(g, xrand.New(seed), paperCfg())
		driving := 0
		for now := 0.0; now <= units.Hours(3); now++ {
			got := w.Position(now)
			if w.paused {
				continue
			}
			driving++
			if want := referenceAt(w.route, w.speed*(now-w.legStart)); got != want {
				t.Fatalf("seed %d t=%v: got %v, want %v", seed, now, got, want)
			}
		}
		if driving == 0 {
			t.Fatalf("seed %d never drove", seed)
		}
	}
}
