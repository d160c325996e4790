package wireless

import (
	"fmt"
	"math"
	"testing"

	"vdtn/internal/event"
	"vdtn/internal/geo"
	"vdtn/internal/xrand"
)

// hinted is a test entity with an explicit static-until schedule: it sits
// at `at` until `until`, then follows fn. It counts Position queries so
// tests can assert the scan actually skips it.
type hinted struct {
	id      int
	at      geo.Point
	until   float64
	fn      func(now float64) geo.Point
	queries int
}

func (h *hinted) ID() int { return h.id }

func (h *hinted) Position(now float64) geo.Point {
	h.queries++
	if now <= h.until || h.fn == nil {
		return h.at
	}
	return h.fn(now)
}

func (h *hinted) StaticUntil(now float64) float64 {
	if now <= h.until {
		return h.until
	}
	return now
}

// connectedPairs reads the medium's connected set through the public
// surface (Connected for membership), given the universe of ids.
func connectedPairs(m *Medium, ids []int) map[pairKey]bool {
	out := make(map[pairKey]bool)
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if m.Connected(ids[i], ids[j]) {
				out[key(ids[i], ids[j])] = true
			}
		}
	}
	return out
}

// TestScanMatchesBruteForceOverTime drives the incremental scan across
// many ticks of a randomized moving cloud — static entities with hints,
// free movers without — and checks the connected set after every tick
// against both a brute-force O(n²) oracle and the retained full-rescan
// reference implementation, plus the adjacency invariant. Coordinates are
// centred on the origin so negative values and the floor-vs-trunc cell
// mapping are exercised throughout. The last trials spread their homes
// over ±10⁶ m in clusters a whole number of grid-table widths apart, so
// the clusters share table slots.
func TestScanMatchesBruteForceOverTime(t *testing.T) {
	rng := xrand.New(4242)
	for trial := 0; trial < 12; trial++ {
		s := event.NewScheduler()
		m := NewMedium(s, testCfg())
		m.SetHandler(&recorder{})
		n := 30 + rng.IntN(40)
		ids := make([]int, n)
		posAt := make([]func(now float64) geo.Point, n)
		var centres []geo.Point
		if trial >= 8 {
			for range 3 {
				centres = append(centres, geo.Point{
					X: float64(rng.IntN(1041)-520) * 64 * 30,
					Y: float64(rng.IntN(1041)-520) * 64 * 30,
				})
			}
		}
		for i := 0; i < n; i++ {
			ids[i] = i
			home := geo.Point{X: rng.Float64()*400 - 200, Y: rng.Float64()*400 - 200}
			if centres != nil {
				c := centres[i%len(centres)]
				home = geo.Point{X: c.X + home.X, Y: c.Y + home.Y}
			}
			switch i % 3 {
			case 0: // static forever, with hint
				m.Add(&hinted{id: i, at: home, until: math.Inf(1)})
				posAt[i] = func(float64) geo.Point { return home }
			case 1: // parked for a while, then drifts
				until := 5 + rng.Float64()*20
				vx, vy := rng.Float64()*8-4, rng.Float64()*8-4
				fn := func(now float64) geo.Point {
					return geo.Point{X: home.X + vx*(now-until), Y: home.Y + vy*(now-until)}
				}
				m.Add(&hinted{id: i, at: home, until: until, fn: fn})
				posAt[i] = func(now float64) geo.Point {
					if now <= until {
						return home
					}
					return fn(now)
				}
			default: // always moving, no hint
				vx, vy := rng.Float64()*10-5, rng.Float64()*10-5
				fn := func(now float64) geo.Point {
					return geo.Point{X: home.X + vx*now, Y: home.Y + vy*now}
				}
				m.Add(&scripted{id: i, fn: fn})
				posAt[i] = fn
			}
		}
		m.Start(0)
		for tick := 0; tick <= 40; tick++ {
			now := float64(tick)
			s.RunUntil(now + 0.5)
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					want := posAt[i](now).Dist2(posAt[j](now)) <= 30*30
					if got := m.Connected(i, j); got != want {
						t.Fatalf("trial %d tick %d: pair (%d,%d) connected=%v want %v",
							trial, tick, i, j, got, want)
					}
				}
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("trial %d tick %d: %v", trial, tick, err)
			}
		}
	}
}

// TestScanMatchesReferenceBoundaryGeometry pins the exact boundary
// semantics against the full-rescan reference: points exactly at Range,
// points sitting exactly on cell borders (coordinates at multiples of the
// cell size, positive and negative), clusters straddling the origin, and
// points one and two grid-table widths apart, which share a table slot.
func TestScanMatchesReferenceBoundaryGeometry(t *testing.T) {
	const wrap = 64 * 30 // table width and height for this many entities, in metres
	pts := []geo.Point{
		{X: 0, Y: 0},
		{X: 30, Y: 0},   // exactly at Range, on a cell border
		{X: 60, Y: 0},   // exactly at Range from the previous, two cells over
		{X: -30, Y: 0},  // negative cell border
		{X: -30, Y: 30}, // corner of four cells
		{X: -15, Y: 15},
		{X: 29.999999, Y: 0},
		{X: -59.999, Y: 0.001},
		{X: 0, Y: -30},
		{X: 90, Y: 90},
		{X: wrap, Y: 0},           // same slot as the origin, out of range
		{X: 2 * wrap, Y: 0},       // two widths out, same slot again
		{X: 0, Y: -wrap},          // wraps on the y axis
		{X: -wrap, Y: -2 * wrap},  // negative, both axes
		{X: wrap - 15, Y: 0},      // last column; in range of the next two
		{X: wrap + 5, Y: 0},       // first column of the next lap
		{X: wrap - 15, Y: 20},     // across the wrap diagonally
		{X: -wrap + 10, Y: -wrap}, // negative, in range across the wrap
		{X: -wrap - 10, Y: -wrap},
		{X: -wrap - 10, Y: -wrap + 30}, // exactly at Range across the wrap
		{X: 2*wrap - 30, Y: 0},         // at Range of a point two widths out
	}
	s := event.NewScheduler()
	m := NewMedium(s, testCfg())
	m.SetHandler(&recorder{})
	ids := make([]int, len(pts))
	for i, p := range pts {
		ids[i] = i
		m.Add(fixed(i, p))
	}
	m.Start(0)
	s.RunUntil(0.5)
	if w, h := m.sc.grid.wMask+1, m.sc.grid.hMask+1; w*30 != wrap || h*30 != wrap {
		t.Fatalf("grid table is %dx%d, the test assumes %d m", w, h, wrap)
	}

	want := m.proximityPairsReference(0)
	got := connectedPairs(m, ids)
	if len(got) != len(want) {
		t.Fatalf("connected %d pairs, reference %d", len(got), len(want))
	}
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			k := key(i, j)
			if got[k] != want[k] {
				t.Errorf("pair (%d,%d): scan %v, reference %v (dist %v)",
					i, j, got[k], want[k], pts[i].Dist(pts[j]))
			}
			brute := pts[i].Dist2(pts[j]) <= 30*30
			if got[k] != brute {
				t.Errorf("pair (%d,%d): scan %v, brute force %v", i, j, got[k], brute)
			}
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestScanRandomCellBoundaryClouds is the randomized variant: clouds whose
// coordinates are snapped to cell-size multiples (worst case for any
// open/closed cell-interval confusion), checked against brute force.
func TestScanRandomCellBoundaryClouds(t *testing.T) {
	rng := xrand.New(77)
	for trial := 0; trial < 20; trial++ {
		s := event.NewScheduler()
		m := NewMedium(s, testCfg())
		m.SetHandler(&recorder{})
		n := 15 + rng.IntN(25)
		pts := make([]geo.Point, n)
		for i := range pts {
			// Mix of exact multiples of the 30 m cell size and off-grid
			// points, spanning negative coordinates.
			x := float64(rng.IntN(13)-6) * 30
			y := float64(rng.IntN(13)-6) * 30
			if rng.IntN(2) == 1 {
				x += rng.Float64() * 30
			}
			if rng.IntN(2) == 1 {
				y += rng.Float64() * 30
			}
			pts[i] = geo.Point{X: x, Y: y}
			m.Add(fixed(i, pts[i]))
		}
		m.Start(0)
		s.RunUntil(0.5)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				want := pts[i].Dist2(pts[j]) <= 30*30
				if got := m.Connected(i, j); got != want {
					t.Fatalf("trial %d: pair (%d,%d) at dist %v: connected=%v want %v",
						trial, i, j, pts[i].Dist(pts[j]), got, want)
				}
			}
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStaticHintSkipsPositionQueries asserts the scan's headline saving:
// an entity whose hint pins it is queried once, not once per tick, while
// contacts against it keep rising and falling as movers pass by.
func TestStaticHintSkipsPositionQueries(t *testing.T) {
	s := event.NewScheduler()
	m := NewMedium(s, testCfg())
	rec := &recorder{}
	m.SetHandler(rec)
	parked := &hinted{id: 0, at: geo.Point{X: 0, Y: 0}, until: math.Inf(1)}
	m.Add(parked)
	// A mover sweeping past the parked node: in range around t∈[7,13].
	m.Add(&scripted{id: 1, fn: func(now float64) geo.Point {
		return geo.Point{X: -100 + 10*now, Y: 0}
	}})
	m.Start(0)
	s.RunUntil(30)

	if parked.queries != 1 {
		t.Fatalf("static entity queried %d times over 31 ticks, want 1", parked.queries)
	}
	if len(rec.ups) != 1 || len(rec.downs) != 1 {
		t.Fatalf("drive-by contact not detected: ups=%v downs=%v", rec.ups, rec.downs)
	}
	if m.Connected(0, 1) {
		t.Fatal("still connected after the mover passed")
	}
}

// TestStaticHintExpiresAndRequeries pins the pause-end boundary: a node
// parked until t=10 is skipped through t=10 and re-queried on the first
// tick after its hint expires.
func TestStaticHintExpiresAndRequeries(t *testing.T) {
	s := event.NewScheduler()
	m := NewMedium(s, testCfg())
	m.SetHandler(&recorder{})
	h := &hinted{id: 0, at: geo.Point{X: 0, Y: 0}, until: 10,
		fn: func(now float64) geo.Point { return geo.Point{X: 10 * (now - 10), Y: 0} }}
	m.Add(h)
	m.Add(fixed(1, geo.Point{X: 200, Y: 0})) // no hint: re-queried every tick
	m.Start(0)
	s.RunUntil(20.5)

	// Queried at t=0 (first tick), skipped while the hint strictly
	// exceeds now, re-queried exactly at the expiry instant t=10 (the
	// position may change right at pauseEnd), then every tick after:
	// 1 + 1 + 10 = 12 queries over 21 ticks instead of 21.
	if h.queries != 12 {
		t.Fatalf("hinted entity queried %d times, want 12", h.queries)
	}
	// By t=20 it has driven to x=100, well within range of node 1 at 200?
	// No: 100 m apart — still out of range; just check state consistency.
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPeersOfAllocationFree is the acceptance criterion that PeersOf no
// longer walks the global contact map: it must return the cached
// adjacency slice with zero allocations.
func TestPeersOfAllocationFree(t *testing.T) {
	s := event.NewScheduler()
	m := NewMedium(s, testCfg())
	m.SetHandler(&recorder{})
	for i := 0; i < 8; i++ {
		m.Add(fixed(i, geo.Point{X: float64(i) * 10, Y: 0}))
	}
	m.Start(0)
	s.RunUntil(0.5)
	if got := m.PeersOf(3); len(got) != 6 { // 0,1,2,4,5,6 within 30 m
		t.Fatalf("PeersOf(3) = %v", got)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 8; i++ {
			if len(m.PeersOf(i)) == 0 {
				t.Fatal("lost peers")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("PeersOf allocates %v per run, want 0", allocs)
	}
}

// TestScanSteadyStateAllocationFree: once the working set is warm, a scan
// tick with no contact transitions performs no allocations at all.
func TestScanSteadyStateAllocationFree(t *testing.T) {
	s := event.NewScheduler()
	m := NewMedium(s, testCfg())
	m.SetHandler(&recorder{})
	rng := xrand.New(5)
	for i := 0; i < 300; i++ {
		p := geo.Point{X: rng.Float64() * 600, Y: rng.Float64() * 600}
		if i%3 == 0 {
			// Oscillates inside a 2 m envelope: always a mover, but its
			// contact set never changes.
			phase := rng.Float64()
			m.Add(&scripted{id: i, fn: func(now float64) geo.Point {
				return geo.Point{X: p.X + math.Sin(now+phase), Y: p.Y}
			}})
		} else {
			m.Add(&hinted{id: i, at: p, until: math.Inf(1)})
		}
	}
	now := 0.0
	m.scan(now)
	for i := 0; i < 10; i++ { // warm the reusable slices past any growth
		now++
		m.scan(now)
	}
	allocs := testing.AllocsPerRun(50, func() {
		now++
		m.scan(now)
	})
	if allocs != 0 {
		t.Fatalf("steady-state scan allocates %v per tick, want 0", allocs)
	}
}

// TestAdjacencyAcrossAllContactSources verifies the adjacency cache is
// maintained uniformly by all three contact sources — scan, plan, replay —
// since raise/drop is the single funnel.
func TestAdjacencyAcrossAllContactSources(t *testing.T) {
	check := func(t *testing.T, m *Medium, s *event.Scheduler) {
		t.Helper()
		s.RunUntil(15)
		if got := m.PeersOf(0); len(got) != 1 || got[0] != 1 {
			t.Fatalf("PeersOf(0) = %v, want [1]", got)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		s.RunUntil(100)
		if got := m.PeersOf(0); len(got) != 0 {
			t.Fatalf("PeersOf(0) after drop = %v, want []", got)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("scan", func(t *testing.T) {
		s := event.NewScheduler()
		m := NewMedium(s, testCfg())
		m.SetHandler(&recorder{})
		m.Add(fixed(0, geo.Point{}))
		m.Add(&scripted{id: 1, fn: func(now float64) geo.Point {
			if now < 20 {
				return geo.Point{X: 10, Y: 0}
			}
			return geo.Point{X: 1000, Y: 0}
		}})
		m.Start(0)
		check(t, m, s)
	})
	t.Run("plan", func(t *testing.T) {
		s := event.NewScheduler()
		m := NewMedium(s, testCfg())
		m.SetHandler(&recorder{})
		m.Add(fixed(0, geo.Point{}))
		m.Add(fixed(1, geo.Point{X: 9999, Y: 9999}))
		m.StartPlan([]ContactWindow{{A: 0, B: 1, Start: 10, End: 20}})
		check(t, m, s)
	})
	t.Run("replay", func(t *testing.T) {
		s := event.NewScheduler()
		m := NewMedium(s, testCfg())
		m.SetHandler(&recorder{})
		m.Add(fixed(0, geo.Point{}))
		m.Add(fixed(1, geo.Point{X: 9999, Y: 9999}))
		rec := &Recording{ScanInterval: 1, Duration: 100, Transitions: []Transition{
			{Time: 10, A: 0, B: 1, Up: true},
			{Time: 20, A: 0, B: 1, Up: false},
		}}
		m.StartReplay(0, viewOf(t, rec))
		check(t, m, s)
	})
}

// TestAddAfterStartIsPickedUp preserves the pre-refactor behavior that an
// entity registered after Start joins the scan on the next tick (the
// working set grows on demand). It then adds enough entities to outgrow
// the grid table: the static entities placed before the rebuild are never
// re-queried, so they must be re-homed into the larger table.
func TestAddAfterStartIsPickedUp(t *testing.T) {
	s := event.NewScheduler()
	m := NewMedium(s, testCfg())
	rec := &recorder{}
	m.SetHandler(rec)
	m.Add(fixed(0, geo.Point{}))
	m.Start(0)
	s.RunUntil(2.5)
	m.Add(fixed(1, geo.Point{X: 10, Y: 0}))
	s.RunUntil(5)
	if !m.Connected(0, 1) {
		t.Fatal("late-added entity never scanned")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	pts := []geo.Point{{}, {X: 10, Y: 0}}
	rng := xrand.New(9)
	addStatic := func(count int) {
		for range count {
			p := geo.Point{X: rng.Float64()*6000 - 3000, Y: rng.Float64()*6000 - 3000}
			m.Add(&hinted{id: len(pts), at: p, until: math.Inf(1)})
			pts = append(pts, p)
		}
	}
	addStatic(1000)
	s.RunUntil(6)
	slots := len(m.sc.grid.cells)
	addStatic(3000)
	s.RunUntil(7)
	if len(m.sc.grid.cells) <= slots {
		t.Fatalf("grid table stayed at %d slots for %d entities", slots, len(pts))
	}
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if want := pts[i].Dist2(pts[j]) <= 30*30; m.Connected(i, j) != want {
				t.Fatalf("pair (%d,%d) at dist %v: connected=%v want %v",
					i, j, pts[i].Dist(pts[j]), !want, want)
			}
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestGridSlotsIndependentOfGeometry is the grid's bounded-memory
// property: the table size follows the entity count alone, so a fleet
// spread over 10⁷ m gets the same table as the same fleet in a 400 m
// cloud, and both scan correctly.
func TestGridSlotsIndependentOfGeometry(t *testing.T) {
	var slots []int
	for _, side := range []float64{400, 1e7} {
		s := event.NewScheduler()
		m := NewMedium(s, testCfg())
		m.SetHandler(&recorder{})
		rng := xrand.New(3)
		pts := make([]geo.Point, 500)
		for i := range pts {
			pts[i] = geo.Point{X: rng.Float64()*side - side/2, Y: rng.Float64()*side - side/2}
			if i%2 == 1 { // a partner within range, so both geometries have contacts
				pts[i] = geo.Point{X: pts[i-1].X + 20, Y: pts[i-1].Y}
			}
			m.Add(fixed(i, pts[i]))
		}
		m.Start(0)
		s.RunUntil(0.5)
		slots = append(slots, len(m.sc.grid.cells))
		for i := range pts {
			for j := i + 1; j < len(pts); j++ {
				if want := pts[i].Dist2(pts[j]) <= 30*30; m.Connected(i, j) != want {
					t.Fatalf("side %v: pair (%d,%d) connected=%v want %v", side, i, j, !want, want)
				}
			}
		}
	}
	if slots[0] != slots[1] {
		t.Fatalf("table slots: %d for a 400 m cloud, %d for a 10⁷ m spread", slots[0], slots[1])
	}
}

// TestScanEquivalenceHintedVsUnhinted: the same trajectory with and
// without static hints must produce the identical transition sequence —
// the hint is a pure optimization.
func TestScanEquivalenceHintedVsUnhinted(t *testing.T) {
	build := func(hints bool) (*event.Scheduler, *Medium, *recorder) {
		s := event.NewScheduler()
		m := NewMedium(s, testCfg())
		rec := &recorder{}
		m.SetHandler(rec)
		rng := xrand.New(11)
		for i := 0; i < 60; i++ {
			home := geo.Point{X: rng.Float64()*300 - 150, Y: rng.Float64()*300 - 150}
			until := rng.Float64() * 30
			vx := rng.Float64()*10 - 5
			fn := func(now float64) geo.Point {
				if now <= until {
					return home
				}
				return geo.Point{X: home.X + vx*(now-until), Y: home.Y}
			}
			if hints {
				m.Add(&hinted{id: i, at: home, until: until, fn: fn})
			} else {
				m.Add(&scripted{id: i, fn: fn})
			}
		}
		m.Start(0)
		return s, m, rec
	}
	s1, m1, r1 := build(true)
	s2, m2, r2 := build(false)
	s1.RunUntil(60)
	s2.RunUntil(60)
	if fmt.Sprint(r1.ups) != fmt.Sprint(r2.ups) || fmt.Sprint(r1.downs) != fmt.Sprint(r2.downs) {
		t.Fatalf("hinted and unhinted transition sequences diverged:\nhinted:   %v / %v\nunhinted: %v / %v",
			r1.ups, r1.downs, r2.ups, r2.downs)
	}
	if m1.ContactsSeen != m2.ContactsSeen {
		t.Fatalf("ContactsSeen %d vs %d", m1.ContactsSeen, m2.ContactsSeen)
	}
	if err := m1.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
