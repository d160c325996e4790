// Package mobility implements the movement models of the scenario: the
// shortest-path map-based random-waypoint walk the paper's vehicles perform
// and the stationary model of the relay nodes.
//
// Models expose position analytically: Position(now) computes where the
// node is at a given time from the active route leg, rather than mutating a
// coordinate every tick. Queries must be issued with non-decreasing time
// stamps (the simulator's connectivity scan guarantees this); a model
// consumes its random stream only when it has to commit to the next leg, so
// a run's trajectory is a pure function of (map, seed).
package mobility

import (
	"fmt"
	"math"

	"vdtn/internal/geo"
	"vdtn/internal/roadmap"
	"vdtn/internal/xrand"
)

// Model yields a node's position over time. Implementations require
// non-decreasing query times and panic on time reversal beyond a small
// tolerance, because rewinding would silently desynchronize the model's
// random stream from the trajectory already observed.
type Model interface {
	Position(now float64) geo.Point
}

// Stationary is the relay-node model: a fixed position forever.
type Stationary struct {
	At geo.Point
}

// Position returns the fixed position.
func (s Stationary) Position(now float64) geo.Point { return s.At }

// StaticUntil reports that the position never changes (half of the
// wireless scan's motion hint; see wireless.MotionHint).
func (s Stationary) StaticUntil(now float64) float64 { return math.Inf(1) }

// MaxSpeed reports that the node never moves.
func (s Stationary) MaxSpeed() float64 { return 0 }

// timeTolerance absorbs float64 noise in repeated same-instant queries.
const timeTolerance = 1e-9

// MapWalk is the paper's vehicle movement: pick a random map location,
// drive there along the shortest road path at a random constant speed, wait
// a random pause, repeat.
//
// Paper parameters: speed uniform in [30, 50] km/h, pause uniform in
// [5, 15] minutes, destinations uniform over map locations.
type MapWalk struct {
	g   *roadmap.Graph
	rng *xrand.Rand

	speedLo, speedHi float64 // m/s
	pauseLo, pauseHi float64 // s

	// Current leg. Exactly one of the two modes is active:
	//   paused: stands at vertex `at` until pauseEnd
	//   moving: drives along route, departed legStart at `speed`
	paused   bool
	at       int // current vertex while paused / destination while moving
	pauseEnd float64

	route    geo.Polyline
	segLen   []float64 // route[i].Dist(route[i+1]), filled once per leg
	routeLen float64
	legStart float64
	speed    float64
	arrival  float64 // legStart + routeLen/speed
	passed   int     // leading segments the last query's distance was past

	lastQuery float64
	trips     int // completed trips, for tests/diagnostics
}

// MapWalkConfig carries the distribution parameters for a MapWalk.
type MapWalkConfig struct {
	SpeedLoMs float64 // lower speed bound, m/s; must be > 0
	SpeedHiMs float64 // upper speed bound, m/s; >= SpeedLoMs
	PauseLoS  float64 // lower pause bound, s; >= 0
	PauseHiS  float64 // upper pause bound, s; >= PauseLoS
}

// Validate reports the first invalid field, if any.
func (c MapWalkConfig) Validate() error {
	switch {
	case c.SpeedLoMs <= 0:
		return fmt.Errorf("mobility: speed lower bound %v must be positive", c.SpeedLoMs)
	case c.SpeedHiMs < c.SpeedLoMs:
		return fmt.Errorf("mobility: speed bounds inverted: [%v, %v]", c.SpeedLoMs, c.SpeedHiMs)
	case c.PauseLoS < 0:
		return fmt.Errorf("mobility: negative pause %v", c.PauseLoS)
	case c.PauseHiS < c.PauseLoS:
		return fmt.Errorf("mobility: pause bounds inverted: [%v, %v]", c.PauseLoS, c.PauseHiS)
	}
	return nil
}

// NewMapWalk returns a vehicle walk on g driven by rng. The vehicle starts
// at a random intersection and departs on its first trip at time 0.
// It panics if the config is invalid or the map fails validation; scenario
// assembly is expected to have validated both.
func NewMapWalk(g *roadmap.Graph, rng *xrand.Rand, cfg MapWalkConfig) *MapWalk {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	if err := g.Validate(); err != nil {
		panic(err.Error())
	}
	w := &MapWalk{
		g:       g,
		rng:     rng,
		speedLo: cfg.SpeedLoMs,
		speedHi: cfg.SpeedHiMs,
		pauseLo: cfg.PauseLoS,
		pauseHi: cfg.PauseHiS,
		paused:  true,
		at:      g.RandomVertex(rng),
	}
	w.pauseEnd = 0 // departs immediately
	return w
}

// Trips returns the number of completed point-to-point trips so far.
func (w *MapWalk) Trips() int { return w.trips }

// Position returns the vehicle position at time now. Queries must be
// non-decreasing in time.
func (w *MapWalk) Position(now float64) geo.Point {
	if now < w.lastQuery-timeTolerance {
		panic(fmt.Sprintf("mobility: time reversed from %v to %v", w.lastQuery, now))
	}
	if now < w.lastQuery {
		w.passed = 0 // a step back inside the tolerance may un-pass a segment
	}
	w.lastQuery = now
	for {
		if w.paused {
			if now < w.pauseEnd {
				return w.g.Vertex(w.at)
			}
			w.depart(w.pauseEnd)
			continue
		}
		if now < w.arrival {
			return w.along(w.speed * (now - w.legStart))
		}
		w.arrive(w.arrival)
	}
}

// along returns the point d metres along the route, clamped to its ends:
// the distance is walked down the cached segment lengths by sequential
// subtraction, and the segment it ends on is interpolated at d/length.
//
// Within a leg d never decreases (Position resets the cursor when it
// does), and rounded subtraction is monotone, so a segment the previous
// query's distance was past is past again: for the first w.passed
// segments only the subtractions are repeated, which keeps the remainder,
// and so the point, bit-identical to a walk from the start.
func (w *MapWalk) along(d float64) geo.Point {
	pl := w.route
	if d <= 0 || len(pl) == 1 {
		return pl[0]
	}
	i := 0
	for ; i < w.passed; i++ {
		d -= w.segLen[i]
	}
	for ; i < len(w.segLen); i++ {
		// d > 0 here: it starts positive and only loses a segment it
		// exceeds, so d <= seg implies a segment of positive length.
		seg := w.segLen[i]
		if d <= seg {
			w.passed = i
			if d == seg {
				return pl[i+1]
			}
			return pl[i].Lerp(pl[i+1], d/seg)
		}
		d -= seg
	}
	w.passed = len(w.segLen)
	return pl[len(pl)-1]
}

// StaticUntil reports how long the vehicle is guaranteed to stand still:
// through the end of the current pause while parked, or not at all while
// driving. Like Position, it must be called with the model's state at
// `now` (i.e. immediately after Position(now)); it consumes nothing from
// the random stream, so skipping position queries during a pause leaves
// the trajectory bit-identical.
func (w *MapWalk) StaticUntil(now float64) float64 {
	if w.paused {
		return w.pauseEnd
	}
	return now
}

// MaxSpeed bounds the vehicle's displacement: it drives each leg at a
// speed drawn from [speedLo, speedHi], and a chord of its route is never
// longer than the arc, so between two instants it moves at most speedHi
// times the time it spent driving. Like StaticUntil, it consumes nothing
// from the random stream.
func (w *MapWalk) MaxSpeed() float64 { return w.speedHi }

// depart commits to the next trip, consuming random draws for destination
// and speed.
func (w *MapWalk) depart(at float64) {
	// Pick a destination distinct from the current vertex. The map is
	// connected (validated in the constructor), so any pick is reachable.
	dest := w.at
	for dest == w.at {
		dest = w.g.RandomVertex(w.rng)
	}
	route, dist, ok := w.g.AppendRoute(w.route[:0], w.at, dest)
	if !ok {
		panic("mobility: unreachable destination on validated map")
	}
	w.setRoute(route)
	w.routeLen = dist
	w.speed = w.rng.UniformFloat(w.speedLo, w.speedHi)
	w.legStart = at
	w.arrival = at + dist/w.speed
	w.paused = false
	w.at = dest
}

// setRoute installs the leg's geometry: its segment lengths are measured
// here, once, and the walk cursor restarts at the first segment.
func (w *MapWalk) setRoute(route geo.Polyline) {
	w.route = route
	w.segLen = w.segLen[:0]
	for i := 1; i < len(route); i++ {
		w.segLen = append(w.segLen, route[i-1].Dist(route[i]))
	}
	w.passed = 0
}

// arrive ends the current trip at the destination and starts the pause.
func (w *MapWalk) arrive(at float64) {
	w.trips++
	w.paused = true
	w.pauseEnd = at + w.rng.UniformFloat(w.pauseLo, w.pauseHi)
}
