package mobility

import (
	"math"
	"testing"

	"vdtn/internal/geo"
	"vdtn/internal/roadmap"
	"vdtn/internal/units"
	"vdtn/internal/xrand"
)

// paperCfg is the paper's vehicle parameterization: 30-50 km/h,
// 5-15 min pauses.
func paperCfg() MapWalkConfig {
	return MapWalkConfig{
		SpeedLoMs: units.KmhToMs(30),
		SpeedHiMs: units.KmhToMs(50),
		PauseLoS:  units.Minutes(5),
		PauseHiS:  units.Minutes(15),
	}
}

func TestStationary(t *testing.T) {
	s := Stationary{At: geo.Point{X: 7, Y: 9}}
	for _, now := range []float64{0, 100, 1e6} {
		if got := s.Position(now); got != (geo.Point{X: 7, Y: 9}) {
			t.Fatalf("Position(%v) = %v", now, got)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	cases := map[string]MapWalkConfig{
		"zero speed":      {SpeedLoMs: 0, SpeedHiMs: 10, PauseHiS: 1},
		"inverted speed":  {SpeedLoMs: 10, SpeedHiMs: 5, PauseHiS: 1},
		"negative pause":  {SpeedLoMs: 1, SpeedHiMs: 2, PauseLoS: -1, PauseHiS: 1},
		"inverted pauses": {SpeedLoMs: 1, SpeedHiMs: 2, PauseLoS: 5, PauseHiS: 1},
	}
	for name, cfg := range cases {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: config accepted", name)
		}
	}
	if err := paperCfg().Validate(); err != nil {
		t.Fatalf("paper config rejected: %v", err)
	}
}

func TestMapWalkStaysOnMap(t *testing.T) {
	g := roadmap.HelsinkiLike()
	w := NewMapWalk(g, xrand.New(1), paperCfg())
	bounds := g.Bounds()
	for now := 0.0; now <= units.Hours(2); now += 5 {
		p := w.Position(now)
		if !bounds.Contains(p) {
			t.Fatalf("vehicle left the map at t=%v: %v", now, p)
		}
	}
	if w.Trips() == 0 {
		t.Fatal("no trips completed in 2 simulated hours")
	}
}

func TestMapWalkSpeedEnvelope(t *testing.T) {
	g := roadmap.HelsinkiLike()
	cfg := paperCfg()
	w := NewMapWalk(g, xrand.New(2), cfg)
	const dt = 1.0
	prev := w.Position(0)
	for now := dt; now <= units.Hours(1); now += dt {
		p := w.Position(now)
		v := prev.Dist(p) / dt
		// Straight-line displacement can exceed instantaneous speed only at
		// polyline corners (the chord cuts the corner is shorter, never
		// longer), so speed-hi is a hard upper bound.
		if v > cfg.SpeedHiMs+1e-6 {
			t.Fatalf("speed %v m/s at t=%v exceeds cap %v", v, now, cfg.SpeedHiMs)
		}
		prev = p
	}
}

func TestMapWalkPausesAtVertices(t *testing.T) {
	g := roadmap.Grid(4, 4, 200)
	cfg := MapWalkConfig{
		SpeedLoMs: 10, SpeedHiMs: 10,
		PauseLoS: 100, PauseHiS: 100,
	}
	w := NewMapWalk(g, xrand.New(3), cfg)
	// Sample densely; every time the position is stable for consecutive
	// samples it must coincide with a map vertex.
	var prev geo.Point
	first := true
	for now := 0.0; now < 5000; now += 1.0 {
		p := w.Position(now)
		if !first && p == prev {
			id := g.NearestVertex(p)
			if g.Vertex(id).Dist(p) > 1e-6 {
				t.Fatalf("vehicle paused off-vertex at %v", p)
			}
		}
		prev, first = p, false
	}
}

func TestMapWalkDeterminism(t *testing.T) {
	g := roadmap.HelsinkiLike()
	w1 := NewMapWalk(g, xrand.New(42), paperCfg())
	w2 := NewMapWalk(g, xrand.New(42), paperCfg())
	for now := 0.0; now < units.Hours(1); now += 7 {
		if p1, p2 := w1.Position(now), w2.Position(now); p1 != p2 {
			t.Fatalf("trajectories diverge at t=%v: %v vs %v", now, p1, p2)
		}
	}
}

func TestMapWalkSeedsDiffer(t *testing.T) {
	g := roadmap.HelsinkiLike()
	w1 := NewMapWalk(g, xrand.New(1), paperCfg())
	w2 := NewMapWalk(g, xrand.New(2), paperCfg())
	same := 0
	samples := 0
	for now := units.Minutes(10); now < units.Hours(1); now += 60 {
		samples++
		if w1.Position(now) == w2.Position(now) {
			same++
		}
	}
	if same == samples {
		t.Fatal("different seeds produced identical trajectories")
	}
}

func TestMapWalkTimeReversalPanics(t *testing.T) {
	g := roadmap.Grid(3, 3, 100)
	w := NewMapWalk(g, xrand.New(1), paperCfg())
	w.Position(100)
	defer func() {
		if recover() == nil {
			t.Fatal("time reversal did not panic")
		}
	}()
	w.Position(50)
}

func TestMapWalkSameInstantQueryOK(t *testing.T) {
	g := roadmap.Grid(3, 3, 100)
	w := NewMapWalk(g, xrand.New(1), paperCfg())
	a := w.Position(100)
	b := w.Position(100)
	if a != b {
		t.Fatalf("same-instant queries differ: %v vs %v", a, b)
	}
}

func TestMapWalkContinuity(t *testing.T) {
	// Position must be continuous: no teleporting between consecutive
	// fine-grained samples, even across pause/move transitions.
	g := roadmap.HelsinkiLike()
	cfg := paperCfg()
	w := NewMapWalk(g, xrand.New(11), cfg)
	const dt = 0.5
	prev := w.Position(0)
	for now := dt; now < units.Hours(3); now += dt {
		p := w.Position(now)
		if step := prev.Dist(p); step > cfg.SpeedHiMs*dt+1e-6 {
			t.Fatalf("discontinuity at t=%v: jumped %v m in %v s", now, step, dt)
		}
		prev = p
	}
}

func TestMapWalkInvalidMapPanics(t *testing.T) {
	g := roadmap.New()
	a := g.AddVertex(geo.Point{X: 0, Y: 0})
	b := g.AddVertex(geo.Point{X: 1, Y: 0})
	c := g.AddVertex(geo.Point{X: 2, Y: 0})
	g.AddEdge(a, b)
	_ = c // disconnected
	defer func() {
		if recover() == nil {
			t.Fatal("disconnected map did not panic")
		}
	}()
	NewMapWalk(g, xrand.New(1), paperCfg())
}

func TestStationaryStaticUntil(t *testing.T) {
	s := Stationary{At: geo.Point{X: 1, Y: 2}}
	if got := s.StaticUntil(42); !math.IsInf(got, 1) {
		t.Fatalf("StaticUntil = %v, want +Inf", got)
	}
	if got := s.MaxSpeed(); got != 0 {
		t.Fatalf("MaxSpeed = %v, want 0", got)
	}
}

// TestMapWalkStaticUntilTracksPauses: while paused the hint promises
// stillness through pauseEnd; while driving it promises nothing.
func TestMapWalkStaticUntilTracksPauses(t *testing.T) {
	g := roadmap.HelsinkiLike()
	w := NewMapWalk(g, xrand.New(3), paperCfg())
	sawPause, sawDrive := false, false
	var prev geo.Point
	for now := 0.0; now <= units.Hours(2); now += 5 {
		p := w.Position(now)
		until := w.StaticUntil(now)
		if until > now {
			sawPause = true
			// The promise must hold: re-query inside the window and the
			// position must not have moved.
			if q := w.Position(math.Min(until-1e-6, now+1)); q != p {
				t.Fatalf("t=%v: promised static until %v but moved %v -> %v", now, until, p, q)
			}
		} else {
			sawDrive = true
			if until != now {
				t.Fatalf("t=%v: driving hint = %v, want now", now, until)
			}
			if now > 0 && p == prev {
				// Not an error per se (could be mid-turn), but with 5 s
				// steps at >=30 km/h a driving vehicle always moves.
				t.Fatalf("t=%v: driving but did not move", now)
			}
		}
		prev = p
	}
	if !sawPause || !sawDrive {
		t.Fatalf("trajectory did not exercise both modes: pause=%v drive=%v", sawPause, sawDrive)
	}
}

// TestMapWalkSparseQueriesBitIdentical is the property the wireless scan
// skip relies on: skipping Position queries must not change the
// trajectory, because StaticUntil and MaxSpeed consume nothing from the
// random stream. Three identically-seeded walkers — one queried every
// second, one only when its own hint expires (the parked skip), one at
// random gaps of 1–60 s (the drifting skip) — must agree exactly at every
// common instant.
func TestMapWalkSparseQueriesBitIdentical(t *testing.T) {
	g := roadmap.HelsinkiLike()
	dense := NewMapWalk(g, xrand.New(9), paperCfg())
	sparse := NewMapWalk(g, xrand.New(9), paperCfg())
	gappy := NewMapWalk(g, xrand.New(9), paperCfg())
	gaps := xrand.New(10)

	skipUntil := -1.0
	nextGappy := 0.0
	checked, checkedGappy := 0, 0
	for now := 0.0; now <= units.Hours(3); now++ {
		dp := dense.Position(now)
		if now == nextGappy {
			if gp := gappy.Position(now); gp != dp {
				t.Fatalf("t=%v: random-gap %v != dense %v", now, gp, dp)
			}
			checkedGappy++
			nextGappy += float64(gaps.UniformInt(1, 60))
		}
		if now < skipUntil {
			continue // sparse walker skipped, like the scan would
		}
		sp := sparse.Position(now)
		if sp != dp {
			t.Fatalf("t=%v: sparse %v != dense %v", now, sp, dp)
		}
		checked++
		skipUntil = sparse.StaticUntil(now)
	}
	if checked == 0 || dense.Trips() != sparse.Trips() {
		t.Fatalf("checked=%d denseTrips=%d sparseTrips=%d",
			checked, dense.Trips(), sparse.Trips())
	}
	if checkedGappy < 100 || gappy.Trips() < dense.Trips()-1 {
		t.Fatalf("random-gap walker checked %d times over %d trips (dense %d)",
			checkedGappy, gappy.Trips(), dense.Trips())
	}
}

// TestMotionHintBoundsDisplacement pins the promise the wireless scan's
// drifting sleep rests on: after a query at t1 a model stands still
// through StaticUntil(t1) and then moves no faster than MaxSpeed, so at
// t2 it is at most MaxSpeed·(t2 − max(t1, StaticUntil(t1))) from where it
// was, up to 1e-9 of the coordinates' scale. The schedules are random
// gaps of 1–60 s, which cross pauses and leg changes.
func TestMotionHintBoundsDisplacement(t *testing.T) {
	type hinted interface {
		Model
		StaticUntil(now float64) float64
		MaxSpeed() float64
	}
	g := roadmap.HelsinkiLike()
	short := MapWalkConfig{SpeedLoMs: 2, SpeedHiMs: 15, PauseLoS: 0, PauseHiS: 40}
	models := []hinted{Stationary{At: geo.Point{X: -3, Y: 1e4}}}
	for seed := uint64(1); seed <= 4; seed++ {
		models = append(models,
			NewMapWalk(g, xrand.New(seed), paperCfg()),
			NewMapWalk(g, xrand.New(seed+100), short))
	}
	for k, mod := range models {
		gaps := xrand.New(uint64(200 + k))
		now := 0.0
		p, until := mod.Position(now), mod.StaticUntil(now)
		pauses := 0
		for now < units.Hours(4) {
			next := now + gaps.UniformFloat(1, 60)
			q := mod.Position(next)
			bound := mod.MaxSpeed() * math.Max(0, next-math.Max(now, until))
			scale := math.Max(1, math.Max(math.Hypot(p.X, p.Y), math.Hypot(q.X, q.Y)))
			if d := p.Dist(q); d > bound+1e-9*scale {
				t.Fatalf("model %d: moved %v m from t=%v to t=%v, bound %v (static until %v, max speed %v)",
					k, d, now, next, bound, until, mod.MaxSpeed())
			}
			if until > now {
				pauses++
			}
			now, p, until = next, q, mod.StaticUntil(next)
		}
		if w, ok := mod.(*MapWalk); ok && (w.Trips() < 5 || pauses == 0) {
			t.Fatalf("model %d: %d trips, %d queries in a pause: schedule crossed too little", k, w.Trips(), pauses)
		}
	}
}

// TestMapWalkParallelQueriesBitIdentical pins the property concurrent
// runs sharing one loaded map rest on: walkers sharing one road graph can
// be queried from concurrent goroutines (each walker owned by exactly one
// goroutine, non-decreasing times — the scan's access pattern) and
// produce exactly the positions a serial sweep produces. The shared state is the graph's
// shortest-path cache, which is locked internally; per-walker RNG streams
// make each walker's draw sequence independent of the others' schedules.
// Run under -race in CI, this is the mobility layer's concurrency audit.
func TestMapWalkParallelQueriesBitIdentical(t *testing.T) {
	g := roadmap.HelsinkiLike()
	const walkers = 16
	const horizon = 1800.0

	serialPos := make([][]geo.Point, walkers)
	for i := 0; i < walkers; i++ {
		w := NewMapWalk(g, xrand.New(uint64(100+i)), paperCfg())
		for now := 0.0; now <= horizon; now++ {
			serialPos[i] = append(serialPos[i], w.Position(now))
		}
	}

	// Fresh graph, so the concurrent run populates the shortest-path
	// cache itself (racing cache misses, not warm hits).
	g2 := roadmap.HelsinkiLike()
	parallelPos := make([][]geo.Point, walkers)
	done := make(chan int, walkers)
	for i := 0; i < walkers; i++ {
		i := i
		w := NewMapWalk(g2, xrand.New(uint64(100+i)), paperCfg())
		go func() {
			for now := 0.0; now <= horizon; now++ {
				parallelPos[i] = append(parallelPos[i], w.Position(now))
			}
			done <- i
		}()
	}
	for i := 0; i < walkers; i++ {
		<-done
	}

	for i := 0; i < walkers; i++ {
		for tick, want := range serialPos[i] {
			if parallelPos[i][tick] != want {
				t.Fatalf("walker %d t=%d: parallel %v != serial %v",
					i, tick, parallelPos[i][tick], want)
			}
		}
	}
}
