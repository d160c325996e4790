package wireless

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"vdtn/internal/event"
	"vdtn/internal/geo"
	"vdtn/internal/xrand"
)

// sequence records every transition the medium fires, in firing order.
type sequence struct{ fired []string }

func (s *sequence) ContactUp(_ float64, a, b int) {
	s.fired = append(s.fired, fmt.Sprintf("up %d-%d", a, b))
}

func (s *sequence) ContactDown(_ float64, a, b int) {
	s.fired = append(s.fired, fmt.Sprintf("down %d-%d", a, b))
}

// checkTicksAgainstReference scans m once per second for the given number
// of ticks. Before each tick it asks scanReference, which rescans every
// position from scratch against the adjacency lists, which transitions
// are due; the tick must fire exactly those, all downs then all ups, each
// ascending by pair.
func checkTicksAgainstReference(t *testing.T, m *Medium, ticks int) (transitions int) {
	t.Helper()
	transitions, _ = checkTickRange(t, m, 0, ticks)
	return transitions
}

// checkTickRange is checkTicksAgainstReference over ticks [from, to). After
// every tick it also checks CheckInvariants and that every drifting
// sleeper is, at its true position, more than the range from every other
// entity; it returns the transitions fired and the sleeper-ticks seen.
func checkTickRange(t *testing.T, m *Medium, from, to int) (transitions, sleeps int) {
	t.Helper()
	seq := &sequence{}
	m.SetHandler(seq)
	for tick := from; tick < to; tick++ {
		now := float64(tick)
		downs, ups := m.scanReference(now)
		var want []string
		for _, k := range downs {
			want = append(want, fmt.Sprintf("down %d-%d", k[0], k[1]))
		}
		for _, k := range ups {
			want = append(want, fmt.Sprintf("up %d-%d", k[0], k[1]))
		}
		seq.fired = seq.fired[:0]
		m.scan(now)
		if !slices.Equal(seq.fired, want) {
			t.Fatalf("tick %d: fired %v, reference %v", tick, seq.fired, want)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("tick %d: %v", tick, err)
		}
		sleeps += checkSleepersOutOfRange(t, m, now)
		transitions += len(want)
	}
	return transitions, sleeps
}

// truePos is where a test entity really is at now, read without a query.
func truePos(e Entity, now float64) geo.Point {
	switch e := e.(type) {
	case *hinted:
		return e.truePos(now)
	case *scripted:
		return e.fn(now)
	}
	panic(fmt.Sprintf("no true position for %T", e))
}

// checkSleepersOutOfRange asserts that every drifting sleeper is, at its
// true position now, more than the range from every other entity, and
// returns the number of sleepers.
func checkSleepersOutOfRange(t *testing.T, m *Medium, now float64) (sleepers int) {
	t.Helper()
	for i, st := range m.sc.state {
		if st != stateAsleep {
			continue
		}
		sleepers++
		pi := truePos(m.sc.ents[i], now)
		for j, e := range m.sc.ents {
			if d := pi.Dist(truePos(e, now)); j != i && d <= m.cfg.Range {
				t.Fatalf("t=%v: node %d asleep %v m from node %d", now, i, d, j)
			}
		}
	}
	return sleepers
}

// linear returns a mover from home at velocity v, standing still until
// start; with hint, it offers a static-until hint through start.
func linear(home, v geo.Point, start float64, hint bool) Entity {
	fn := func(now float64) geo.Point { return home.Add(v.Scale(now - start)) }
	if hint {
		return &hinted{at: home, until: start, fn: fn, speed: math.Hypot(v.X, v.Y)}
	}
	return &scripted{fn: func(now float64) geo.Point {
		if now <= start {
			return home
		}
		return fn(now)
	}}
}

// TestScanPropertyParkedCrowd: a crowd parked on one point (every pair of
// it connected, long adjacency lists) with movers driving through it, some
// through the point itself, some grazing the range, some parking inside
// the crowd and later leaving.
func TestScanPropertyParkedCrowd(t *testing.T) {
	r := xrand.New(31)
	var ents []Entity
	spot := geo.Point{X: 4.5, Y: -30}
	for range 150 {
		ents = append(ents, &hinted{at: spot, until: math.Inf(1)})
	}
	for k := 0; k < 40; k++ {
		angle := r.UniformFloat(0, 2*math.Pi)
		dir := geo.Point{X: math.Cos(angle), Y: math.Sin(angle)}
		speed := r.UniformFloat(2, 14)
		offset := geo.Point{X: -dir.Y, Y: dir.X}.Scale(r.UniformFloat(-32, 32))
		if k%4 == 0 {
			offset = geo.Point{} // straight through the spot
		}
		home := spot.Add(offset).Sub(dir.Scale(speed * 30))
		start := 0.0
		if k%5 == 0 { // parked inside the crowd until a random time
			home, start = spot.Add(offset.Scale(0.5)), r.UniformFloat(5, 40)
		}
		ents = append(ents, linear(home, dir.Scale(speed), start, k%2 == 0))
	}
	// Exact arithmetic: this one is exactly at range from the crowd at
	// ticks 15 and 45, connected through both.
	ents = append(ents, linear(spot.Add(geo.Point{X: -60}), geo.Point{X: 2}, 0, false))
	m := scanning(event.NewScheduler(), nil, ents...)
	if n := checkTicksAgainstReference(t, m, 70); n < 100 {
		t.Fatalf("only %d transitions: the crowd was not crossed", n)
	}
}

// TestScanPropertyMoverPairs: movers only, in convoys (pairs holding
// range for many ticks while both move), head-on passes and a random
// cloud, so most transitions involve two movers at once.
func TestScanPropertyMoverPairs(t *testing.T) {
	r := xrand.New(32)
	var ents []Entity
	for k := 0; k < 25; k++ { // convoys of three, drifting apart slowly
		home := geo.Point{X: r.UniformFloat(-300, 300), Y: r.UniformFloat(-300, 300)}
		v := geo.Point{X: r.UniformFloat(-8, 8), Y: r.UniformFloat(-8, 8)}
		for c := 0; c < 3; c++ {
			jitter := geo.Point{X: r.UniformFloat(-0.3, 0.3), Y: r.UniformFloat(-0.3, 0.3)}
			ents = append(ents, linear(home.Add(geo.Point{X: 12 * float64(c)}), v.Add(jitter), 0, false))
		}
	}
	for k := 0; k < 60; k++ { // a cloud, some pausing then moving
		home := geo.Point{X: r.UniformFloat(-300, 300), Y: r.UniformFloat(-300, 300)}
		v := geo.Point{X: r.UniformFloat(-10, 10), Y: r.UniformFloat(-10, 10)}
		ents = append(ents, linear(home, v, r.UniformFloat(-10, 20), k%3 == 0))
	}
	// Exact arithmetic: a pair parting at 2 m/s is exactly at range at
	// tick 15, still connected, and parts at tick 16.
	ents = append(ents, linear(geo.Point{X: 200, Y: 200}, geo.Point{X: -1}, 0, false))
	ents = append(ents, linear(geo.Point{X: 200, Y: 200}, geo.Point{X: 1}, 0, true))
	m := scanning(event.NewScheduler(), nil, ents...)
	if n := checkTicksAgainstReference(t, m, 60); n < 100 {
		t.Fatalf("only %d transitions", n)
	}
}

// TestScanPropertyWrapAround: groups a whole number of table widths apart
// share grid slots, and their members cross the table's edges, so the
// walk meets wrapped strangers every tick and real pairs straddle the
// wrap.
func TestScanPropertyWrapAround(t *testing.T) {
	const wrap = 64 * 30 // table width and height for this many entities, in metres
	r := xrand.New(33)
	var ents []Entity
	laps := []geo.Point{{}, {X: wrap}, {X: -2 * wrap, Y: wrap}, {X: 3 * wrap, Y: -wrap}}
	for k := 0; k < 120; k++ {
		lap := laps[k%len(laps)]
		// Near the table's corner, so members cross both edges.
		home := lap.Add(geo.Point{X: r.UniformFloat(-60, 60), Y: r.UniformFloat(-60, 60)})
		v := geo.Point{X: r.UniformFloat(-4, 4), Y: r.UniformFloat(-4, 4)}
		switch k % 3 {
		case 0:
			ents = append(ents, &hinted{at: home, until: math.Inf(1)})
		default:
			ents = append(ents, linear(home, v, 0, k%3 == 1))
		}
	}
	m := scanning(event.NewScheduler(), nil, ents...)
	transitions := checkTicksAgainstReference(t, m, 50)
	if w := m.sc.grid.wMask + 1; w*30 != wrap {
		t.Fatalf("grid table is %d slots wide, the test assumes %d m", w, wrap)
	}
	if transitions < 100 {
		t.Fatalf("only %d transitions", transitions)
	}
}

// TestScanPropertyRoundedRange: a node a hair left of a cell border and
// one exactly a range right of it are two cells apart, yet their distance
// rounds to exactly the range. The 3x3 walk does not pair them, so a
// contact they had must go down when the first steps across the border,
// as in the reference, and come back up when it steps back.
func TestScanPropertyRoundedRange(t *testing.T) {
	var ents []Entity
	ents = append(ents, fixed(geo.Point{X: 30}))
	ents = append(ents, &scripted{fn: func(now float64) geo.Point {
		if int(now)%2 == 1 {
			return geo.Point{X: -1e-20}
		}
		return geo.Point{}
	}})
	m := scanning(event.NewScheduler(), nil, ents...)
	if n := checkTicksAgainstReference(t, m, 4); n != 4 {
		t.Fatalf("%d transitions, want the contact up, down, up, down", n)
	}
}

// driver returns a mover that drives from home at velocity v from time 0
// and declares its speed as its bound.
func driver(home, v geo.Point) *hinted {
	return linear(home, v, 0, true).(*hinted)
}

// TestScanPropertyHeadOnAtMaxSpeed: pairs drive head-on at exactly their
// declared speed, from just beyond Range + wakeMargin + k·2v apart, so each
// sleep bound is tight to the tick, and some pass side by side at or just
// inside the range. The pairs lie on a 700 m lattice, sparse enough for
// drifting sleep.
func TestScanPropertyHeadOnAtMaxSpeed(t *testing.T) {
	var ents []Entity
	id := 0
	for k := 0; k <= sleepTicks+2; k++ {
		for _, v := range []float64{1, 5, 13.9} {
			for _, eps := range []float64{0, 1e-9, 0.3} {
				for _, lat := range []float64{0, 29.99, 30} {
					p := id / 2
					base := geo.Point{X: float64(p%14) * 700, Y: float64(p/14) * 700}
					d := 30 + wakeMargin + float64(k)*2*v + eps
					ents = append(ents, driver(base, geo.Point{X: v}))
					ents = append(ents, driver(base.Add(geo.Point{X: d, Y: lat}), geo.Point{X: -v}))
					id += 2
				}
			}
		}
	}
	m := scanning(event.NewScheduler(), nil, ents...)
	transitions, sleeps := checkTickRange(t, m, 0, 40)
	if m.sc.coarse.head == nil || sleeps == 0 || transitions < 100 {
		t.Fatalf("drifting sleep on: %v, sleeper-ticks %d, transitions %d", m.sc.coarse.head != nil, sleeps, transitions)
	}
}

// TestScanPropertyCrossingLines: slow movers on a lattice of crossing
// roads, each road's movers driving one way at their declared speed, so
// pairs meet at the crossings from both axes while sleeping in between.
func TestScanPropertyCrossingLines(t *testing.T) {
	r := xrand.New(34)
	var ents []Entity
	for road := 0; road < 12; road++ {
		at := float64(road/2) * 100
		speed := r.UniformFloat(1, 3)
		for k := 0; k < 8; k++ {
			along := float64(k)*200 - 100 + r.UniformFloat(-20, 20)
			if road%2 == 0 { // east-west
				ents = append(ents, driver(geo.Point{X: along, Y: at}, geo.Point{X: speed}))
			} else { // north-south
				ents = append(ents, driver(geo.Point{X: at, Y: along}, geo.Point{Y: -speed}))
			}
		}
	}
	m := scanning(event.NewScheduler(), nil, ents...)
	transitions, sleeps := checkTickRange(t, m, 0, 150)
	if m.sc.coarse.head == nil || sleeps == 0 || transitions < 20 {
		t.Fatalf("drifting sleep on: %v, sleeper-ticks %d, transitions %d", m.sc.coarse.head != nil, sleeps, transitions)
	}
}

// TestScanPropertyLocalCrowd: a parked crowd, dense enough that a mover
// passing it finds a contact possible on the next tick and stops its
// search early, in a field sparse enough that drifting sleep is on.
// Movers drive through and past the crowd; two park in it for a while.
func TestScanPropertyLocalCrowd(t *testing.T) {
	r := xrand.New(35)
	var ents []Entity
	spot := geo.Point{X: 100, Y: -40}
	for i := range 6 {
		ents = append(ents, &hinted{at: spot.Add(geo.Point{X: float64(i) * 3}), until: math.Inf(1)})
	}
	for k := 0; k < 70; k++ {
		angle := r.UniformFloat(0, 2*math.Pi)
		dir := geo.Point{X: math.Cos(angle), Y: math.Sin(angle)}
		speed := r.UniformFloat(2, 12)
		var home geo.Point
		start := 0.0
		switch {
		case k < 2: // parked inside the crowd until a random time
			home, start = spot.Add(dir.Scale(10)), r.UniformFloat(5, 40)
		case k < 10: // through the crowd, or grazing it
			offset := geo.Point{X: -dir.Y, Y: dir.X}.Scale(r.UniformFloat(-35, 35))
			home = spot.Add(offset).Sub(dir.Scale(r.UniformFloat(300, 500)))
		default: // a sparse field around it
			home = geo.Point{X: r.UniformFloat(-6000, 6000), Y: r.UniformFloat(-6000, 6000)}
		}
		ents = append(ents, linear(home, dir.Scale(speed), start, true))
	}
	m := scanning(event.NewScheduler(), nil, ents...)
	transitions, sleeps := checkTickRange(t, m, 0, 120)
	if m.sc.coarse.head == nil || sleeps == 0 || transitions < 20 {
		t.Fatalf("drifting sleep on: %v, sleeper-ticks %d, transitions %d", m.sc.coarse.head != nil, sleeps, transitions)
	}
}

// TestScanPropertyDenseFieldSleepsNot: where the coarse blocks are crowded
// (more than crowdLimit others on average), drifting sleep stays off.
func TestScanPropertyDenseFieldSleepsNot(t *testing.T) {
	r := xrand.New(36)
	var ents []Entity
	for range 80 {
		home := geo.Point{X: r.UniformFloat(-300, 300), Y: r.UniformFloat(-300, 300)}
		ents = append(ents, driver(home, geo.Point{X: r.UniformFloat(-5, 5), Y: r.UniformFloat(-5, 5)}))
	}
	m := scanning(event.NewScheduler(), nil, ents...)
	if n, sleeps := checkTickRange(t, m, 0, 30); sleeps != 0 || m.sc.coarse.head != nil || n == 0 {
		t.Fatalf("dense field: %d sleeper-ticks, drifting sleep on: %v, %d transitions", sleeps, m.sc.coarse.head != nil, n)
	}
}

// TestScanHintlessEntityRestoresQueries: one entity without a motion hint
// makes every speed unbounded, so no entity sleeps and every driving
// entity is queried on every tick, as without drifting sleep; without it,
// the same drivers skip most ticks.
func TestScanHintlessEntityRestoresQueries(t *testing.T) {
	const ticks = 40
	for _, hintless := range []bool{false, true} {
		var ents []Entity
		var drivers []*hinted
		for i := range 10 {
			h := driver(geo.Point{X: float64(i) * 1000}, geo.Point{Y: 8})
			drivers = append(drivers, h)
			ents = append(ents, h)
		}
		if hintless {
			ents = append(ents, fixed(geo.Point{X: -5000}))
		}
		m := scanning(event.NewScheduler(), &recorder{}, ents...)
		for tick := 0; tick < ticks; tick++ {
			m.scan(float64(tick))
		}
		for i, h := range drivers {
			switch {
			case hintless && h.queries != ticks:
				t.Fatalf("with a hint-less entity, driver %d queried %d times in %d ticks", i, h.queries, ticks)
			case !hintless && h.queries > ticks/(sleepTicks+1)+1:
				t.Fatalf("driver %d queried %d times in %d ticks, want at most %d", i, h.queries, ticks, ticks/(sleepTicks+1)+1)
			}
		}
	}
}
