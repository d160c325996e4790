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

func (s *sequence) ContactUp(_ float64, a, b Entity) {
	s.fired = append(s.fired, fmt.Sprintf("up %d-%d", a.ID(), b.ID()))
}

func (s *sequence) ContactDown(_ float64, a, b Entity) {
	s.fired = append(s.fired, fmt.Sprintf("down %d-%d", a.ID(), b.ID()))
}

// checkTicksAgainstReference scans m once per second for the given number
// of ticks. Before each tick it asks scanReference, which rescans every
// position from scratch against the adjacency lists, which transitions
// are due; the tick must fire exactly those, all downs then all ups, each
// ascending by pair.
func checkTicksAgainstReference(t *testing.T, m *Medium, ticks int) (transitions int) {
	t.Helper()
	seq := &sequence{}
	m.SetHandler(seq)
	for tick := 0; tick < ticks; tick++ {
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
		transitions += len(want)
	}
	return transitions
}

// linear returns a mover from home at velocity v, standing still until
// start; with hint, it offers a static-until hint through start.
func linear(id int, home, v geo.Point, start float64, hint bool) Entity {
	fn := func(now float64) geo.Point { return home.Add(v.Scale(now - start)) }
	if hint {
		return &hinted{id: id, at: home, until: start, fn: fn}
	}
	return &scripted{id: id, fn: func(now float64) geo.Point {
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
	m := NewMedium(event.NewScheduler(), testCfg())
	spot := geo.Point{X: 4.5, Y: -30}
	id := 0
	for ; id < 150; id++ {
		m.Add(&hinted{id: id, at: spot, until: math.Inf(1)})
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
		m.Add(linear(id, home, dir.Scale(speed), start, k%2 == 0))
		id++
	}
	// Exact arithmetic: this one is exactly at range from the crowd at
	// ticks 15 and 45, connected through both.
	m.Add(linear(id, spot.Add(geo.Point{X: -60}), geo.Point{X: 2}, 0, false))
	if n := checkTicksAgainstReference(t, m, 70); n < 100 {
		t.Fatalf("only %d transitions: the crowd was not crossed", n)
	}
}

// TestScanPropertyMoverPairs: movers only, in convoys (pairs holding
// range for many ticks while both move), head-on passes and a random
// cloud, so most transitions involve two movers at once.
func TestScanPropertyMoverPairs(t *testing.T) {
	r := xrand.New(32)
	m := NewMedium(event.NewScheduler(), testCfg())
	id := 0
	for k := 0; k < 25; k++ { // convoys of three, drifting apart slowly
		home := geo.Point{X: r.UniformFloat(-300, 300), Y: r.UniformFloat(-300, 300)}
		v := geo.Point{X: r.UniformFloat(-8, 8), Y: r.UniformFloat(-8, 8)}
		for c := 0; c < 3; c++ {
			jitter := geo.Point{X: r.UniformFloat(-0.3, 0.3), Y: r.UniformFloat(-0.3, 0.3)}
			m.Add(linear(id, home.Add(geo.Point{X: 12 * float64(c)}), v.Add(jitter), 0, false))
			id++
		}
	}
	for k := 0; k < 60; k++ { // a cloud, some pausing then moving
		home := geo.Point{X: r.UniformFloat(-300, 300), Y: r.UniformFloat(-300, 300)}
		v := geo.Point{X: r.UniformFloat(-10, 10), Y: r.UniformFloat(-10, 10)}
		m.Add(linear(id, home, v, r.UniformFloat(-10, 20), k%3 == 0))
		id++
	}
	// Exact arithmetic: a pair parting at 2 m/s is exactly at range at
	// tick 15, still connected, and parts at tick 16.
	m.Add(linear(id, geo.Point{X: 200, Y: 200}, geo.Point{X: -1}, 0, false))
	m.Add(linear(id+1, geo.Point{X: 200, Y: 200}, geo.Point{X: 1}, 0, true))
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
	m := NewMedium(event.NewScheduler(), testCfg())
	laps := []geo.Point{{}, {X: wrap}, {X: -2 * wrap, Y: wrap}, {X: 3 * wrap, Y: -wrap}}
	id := 0
	for k := 0; k < 120; k++ {
		lap := laps[k%len(laps)]
		// Near the table's corner, so members cross both edges.
		home := lap.Add(geo.Point{X: r.UniformFloat(-60, 60), Y: r.UniformFloat(-60, 60)})
		v := geo.Point{X: r.UniformFloat(-4, 4), Y: r.UniformFloat(-4, 4)}
		switch k % 3 {
		case 0:
			m.Add(&hinted{id: id, at: home, until: math.Inf(1)})
		default:
			m.Add(linear(id, home, v, 0, k%3 == 1))
		}
		id++
	}
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
	m := NewMedium(event.NewScheduler(), testCfg())
	m.Add(fixed(0, geo.Point{X: 30}))
	m.Add(&scripted{id: 1, fn: func(now float64) geo.Point {
		if int(now)%2 == 1 {
			return geo.Point{X: -1e-20}
		}
		return geo.Point{}
	}})
	if n := checkTicksAgainstReference(t, m, 4); n != 4 {
		t.Fatalf("%d transitions, want the contact up, down, up, down", n)
	}
}
