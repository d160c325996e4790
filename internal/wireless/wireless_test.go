package wireless

import (
	"slices"
	"testing"

	"vdtn/internal/event"
	"vdtn/internal/geo"
	"vdtn/internal/units"
	"vdtn/internal/xrand"
)

// scripted is a test entity whose position is a function of time.
type scripted struct {
	id int
	fn func(now float64) geo.Point
}

func (s *scripted) ID() int                        { return s.id }
func (s *scripted) Position(now float64) geo.Point { return s.fn(now) }

func fixed(id int, p geo.Point) *scripted {
	return &scripted{id: id, fn: func(float64) geo.Point { return p }}
}

// recorder captures contact events.
type recorder struct {
	ups, downs [][2]int
	onUp       func(now float64, a, b Entity)
}

func (r *recorder) ContactUp(now float64, a, b Entity) {
	r.ups = append(r.ups, [2]int{a.ID(), b.ID()})
	if r.onUp != nil {
		r.onUp(now, a, b)
	}
}

func (r *recorder) ContactDown(now float64, a, b Entity) {
	r.downs = append(r.downs, [2]int{a.ID(), b.ID()})
}

func testCfg() Config {
	return Config{Range: 30, Rate: units.Mbit(6), ScanInterval: 1}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Range: 0, Rate: units.Mbit(6), ScanInterval: 1},
		{Range: 30, Rate: 0, ScanInterval: 1},
		{Range: 30, Rate: units.Mbit(6), ScanInterval: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	if err := testCfg().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestContactUpWithinRange(t *testing.T) {
	s := event.NewScheduler()
	m := NewMedium(s, testCfg())
	rec := &recorder{}
	m.SetHandler(rec)
	m.Add(fixed(0, geo.Point{X: 0, Y: 0}))
	m.Add(fixed(1, geo.Point{X: 20, Y: 0}))  // within 30 m of 0
	m.Add(fixed(2, geo.Point{X: 100, Y: 0})) // out of range of both
	m.Start(0)
	s.RunUntil(0.5)
	if len(rec.ups) != 1 || rec.ups[0] != [2]int{0, 1} {
		t.Fatalf("ups = %v, want [[0 1]]", rec.ups)
	}
	if !m.Connected(0, 1) || !m.Connected(1, 0) {
		t.Fatal("Connected not symmetric")
	}
	if m.Connected(0, 2) {
		t.Fatal("far pair connected")
	}
}

func TestContactAtExactRangeBoundary(t *testing.T) {
	s := event.NewScheduler()
	m := NewMedium(s, testCfg())
	rec := &recorder{}
	m.SetHandler(rec)
	m.Add(fixed(0, geo.Point{X: 0, Y: 0}))
	m.Add(fixed(1, geo.Point{X: 30, Y: 0})) // exactly at range: in contact
	m.Start(0)
	s.RunUntil(0.5)
	if !m.Connected(0, 1) {
		t.Fatal("pair at exact range not connected")
	}
}

func TestContactDownWhenMovingApart(t *testing.T) {
	s := event.NewScheduler()
	m := NewMedium(s, testCfg())
	rec := &recorder{}
	m.SetHandler(rec)
	m.Add(fixed(0, geo.Point{X: 0, Y: 0}))
	// Node 1 drives away at 10 m/s starting 10 m from node 0.
	m.Add(&scripted{id: 1, fn: func(now float64) geo.Point {
		return geo.Point{X: 10 + 10*now, Y: 0}
	}})
	m.Start(0)
	s.RunUntil(10)
	if len(rec.ups) != 1 {
		t.Fatalf("ups = %v", rec.ups)
	}
	if len(rec.downs) != 1 || rec.downs[0] != [2]int{0, 1} {
		t.Fatalf("downs = %v, want [[0 1]]", rec.downs)
	}
	if m.Connected(0, 1) {
		t.Fatal("still connected after separation")
	}
}

func TestGridFindsDiagonalNeighbors(t *testing.T) {
	// Pair in diagonal grid cells but within range; regression against an
	// off-by-one in the 3x3 neighbourhood walk.
	s := event.NewScheduler()
	m := NewMedium(s, testCfg())
	rec := &recorder{}
	m.SetHandler(rec)
	m.Add(fixed(0, geo.Point{X: 29, Y: 29}))
	m.Add(fixed(1, geo.Point{X: 31, Y: 31})) // other cell, dist ~2.8
	m.Start(0)
	s.RunUntil(0.5)
	if !m.Connected(0, 1) {
		t.Fatal("diagonal-cell neighbours missed")
	}
}

func TestNegativeCoordinates(t *testing.T) {
	s := event.NewScheduler()
	m := NewMedium(s, testCfg())
	m.SetHandler(&recorder{})
	m.Add(fixed(0, geo.Point{X: -5, Y: -5}))
	m.Add(fixed(1, geo.Point{X: 5, Y: 5}))
	m.Start(0)
	s.RunUntil(0.5)
	if !m.Connected(0, 1) {
		t.Fatal("pair straddling origin missed (floor vs trunc bug)")
	}
}

func TestPeersOf(t *testing.T) {
	s := event.NewScheduler()
	m := NewMedium(s, testCfg())
	m.SetHandler(&recorder{})
	m.Add(fixed(0, geo.Point{X: 500, Y: 500}))
	m.Add(fixed(1, geo.Point{X: 0, Y: 10}))
	m.Add(fixed(2, geo.Point{X: 10, Y: 0}))
	m.Add(fixed(3, geo.Point{X: 0, Y: 0}))
	m.Start(0)
	s.RunUntil(0.5)
	if got := m.PeersOf(3); !slices.Equal(got, []int{1, 2}) {
		t.Fatalf("PeersOf(3) = %v, want [1 2]", got)
	}
	if got := m.PeersOf(1); !slices.Equal(got, []int{2, 3}) {
		t.Fatalf("PeersOf(1) = %v, want [2 3]", got)
	}
	if got := m.PeersOf(0); len(got) != 0 {
		t.Fatalf("PeersOf(0) = %v", got)
	}
}

func TestTransferCompletes(t *testing.T) {
	s := event.NewScheduler()
	m := NewMedium(s, testCfg())
	m.SetHandler(&recorder{})
	m.Add(fixed(0, geo.Point{X: 0, Y: 0}))
	m.Add(fixed(1, geo.Point{X: 10, Y: 0}))
	m.Start(0)
	s.RunUntil(0.5)

	var doneAt float64
	aborted := false
	ok := m.StartTransfer(s.Now(), 0, 1, units.MB(1.5), // 2 s at 6 Mbit/s
		func(now float64) { doneAt = now },
		func(now float64) { aborted = true })
	if !ok {
		t.Fatal("StartTransfer refused")
	}
	if !m.Busy(0) || !m.Busy(1) {
		t.Fatal("endpoints not busy during transfer")
	}
	s.RunUntil(5)
	if aborted {
		t.Fatal("transfer aborted")
	}
	if doneAt != 2.5 {
		t.Fatalf("transfer completed at %v, want 2.5", doneAt)
	}
	if m.Busy(0) || m.Busy(1) {
		t.Fatal("endpoints busy after completion")
	}
	if m.TransfersCompleted != 1 || m.TransfersStarted != 1 {
		t.Fatalf("counters: started=%d completed=%d", m.TransfersStarted, m.TransfersCompleted)
	}
}

func TestTransferRefusedWhenNotConnected(t *testing.T) {
	s := event.NewScheduler()
	m := NewMedium(s, testCfg())
	m.SetHandler(&recorder{})
	m.Add(fixed(0, geo.Point{X: 0, Y: 0}))
	m.Add(fixed(1, geo.Point{X: 500, Y: 0}))
	m.Start(0)
	s.RunUntil(0.5)
	if m.StartTransfer(s.Now(), 0, 1, units.KB(1), nil, nil) {
		t.Fatal("transfer started without contact")
	}
}

func TestTransferRefusedWhenBusy(t *testing.T) {
	s := event.NewScheduler()
	m := NewMedium(s, testCfg())
	m.SetHandler(&recorder{})
	m.Add(fixed(0, geo.Point{X: 0, Y: 0}))
	m.Add(fixed(1, geo.Point{X: 10, Y: 0}))
	m.Add(fixed(2, geo.Point{X: 0, Y: 10}))
	m.Start(0)
	s.RunUntil(0.5)
	if !m.StartTransfer(s.Now(), 0, 1, units.MB(10), nil, nil) {
		t.Fatal("first transfer refused")
	}
	// 0 and 1 are now busy; 2 is idle but its peers are busy.
	if m.StartTransfer(s.Now(), 2, 0, units.KB(1), nil, nil) {
		t.Fatal("transfer to busy receiver started")
	}
	if m.StartTransfer(s.Now(), 1, 2, units.KB(1), nil, nil) {
		t.Fatal("transfer from busy sender started")
	}
}

func TestTransferAbortOnContactBreak(t *testing.T) {
	s := event.NewScheduler()
	m := NewMedium(s, testCfg())
	rec := &recorder{}
	m.SetHandler(rec)
	m.Add(fixed(0, geo.Point{X: 0, Y: 0}))
	// Node 1 leaves range at t≈2.0 (starts at 10 m, 10 m/s).
	m.Add(&scripted{id: 1, fn: func(now float64) geo.Point {
		return geo.Point{X: 10 + 10*now, Y: 0}
	}})
	m.Start(0)
	s.RunUntil(0.5)

	done := false
	var abortAt float64 = -1
	// 100 Mbit => ~16.7 s at 6 Mbit/s: cannot finish before separation.
	if !m.StartTransfer(s.Now(), 0, 1, units.MB(12.5), func(float64) { done = true },
		func(now float64) { abortAt = now }) {
		t.Fatal("transfer refused")
	}
	s.RunUntil(30)
	if done {
		t.Fatal("doomed transfer completed")
	}
	if abortAt < 0 {
		t.Fatal("abort callback never fired")
	}
	if m.Busy(0) || m.Busy(1) {
		t.Fatal("busy after abort")
	}
	if m.TransfersAborted != 1 {
		t.Fatalf("TransfersAborted = %d", m.TransfersAborted)
	}
}

func TestAbortOnlyAffectsBrokenPair(t *testing.T) {
	s := event.NewScheduler()
	m := NewMedium(s, testCfg())
	m.SetHandler(&recorder{})
	m.Add(fixed(0, geo.Point{X: 0, Y: 0}))
	m.Add(fixed(1, geo.Point{X: 10, Y: 0}))
	// Node 2 near node 3, both far from 0/1; 3 drives off at t≈2.
	m.Add(fixed(2, geo.Point{X: 1000, Y: 0}))
	m.Add(&scripted{id: 3, fn: func(now float64) geo.Point {
		return geo.Point{X: 1010 + 10*now, Y: 0}
	}})
	m.Start(0)
	s.RunUntil(0.5)

	okDone := false
	if !m.StartTransfer(s.Now(), 0, 1, units.MB(1.5), func(float64) { okDone = true }, nil) {
		t.Fatal("stable-pair transfer refused")
	}
	doomedAborted := false
	if !m.StartTransfer(s.Now(), 2, 3, units.MB(12.5), nil, func(float64) { doomedAborted = true }) {
		t.Fatal("doomed-pair transfer refused")
	}
	s.RunUntil(30)
	if !okDone {
		t.Fatal("stable pair's transfer was lost")
	}
	if !doomedAborted {
		t.Fatal("doomed pair's transfer not aborted")
	}
}

func TestContactUpHandlerCanStartTransferImmediately(t *testing.T) {
	s := event.NewScheduler()
	m := NewMedium(s, testCfg())
	started := false
	rec := &recorder{onUp: func(now float64, a, b Entity) {
		started = m.StartTransfer(now, a.ID(), b.ID(), units.KB(10), nil, nil)
	}}
	m.SetHandler(rec)
	m.Add(fixed(0, geo.Point{X: 0, Y: 0}))
	m.Add(fixed(1, geo.Point{X: 10, Y: 0}))
	m.Start(0)
	s.RunUntil(0.5)
	if !started {
		t.Fatal("transfer could not start from ContactUp handler")
	}
}

// TestDuplicateEntityPanics: node ids are dense, so Add accepts only the
// next id in order — a duplicate, a skipped or a negative id panics.
func TestDuplicateEntityPanics(t *testing.T) {
	for name, id := range map[string]int{"duplicate": 0, "skipped": 2, "negative": -1} {
		t.Run(name, func(t *testing.T) {
			m := NewMedium(event.NewScheduler(), testCfg())
			m.Add(fixed(0, geo.Point{}))
			defer func() {
				if recover() == nil {
					t.Fatalf("id %d after id 0 did not panic", id)
				}
			}()
			m.Add(fixed(id, geo.Point{X: 5}))
		})
	}
}

func TestSelfTransferPanics(t *testing.T) {
	s := event.NewScheduler()
	m := NewMedium(s, testCfg())
	defer func() {
		if recover() == nil {
			t.Fatal("self transfer did not panic")
		}
	}()
	m.StartTransfer(0, 1, 1, units.KB(1), nil, nil)
}

// Property: against a brute-force O(n²) oracle, the grid scan finds exactly
// the same contact pairs for random node clouds.
func TestGridMatchesBruteForce(t *testing.T) {
	rng := xrand.New(99)
	for trial := 0; trial < 30; trial++ {
		s := event.NewScheduler()
		m := NewMedium(s, testCfg())
		m.SetHandler(&recorder{})
		n := 20 + rng.IntN(40)
		pts := make([]geo.Point, n)
		for i := range pts {
			pts[i] = geo.Point{X: rng.Float64() * 300, Y: rng.Float64() * 300}
			m.Add(fixed(i, pts[i]))
		}
		m.Start(0)
		s.RunUntil(0.5)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				want := pts[i].Dist(pts[j]) <= 30
				if got := m.Connected(i, j); got != want {
					t.Fatalf("trial %d: pair (%d,%d) dist %.2f: got %v want %v",
						trial, i, j, pts[i].Dist(pts[j]), got, want)
				}
			}
		}
	}
}

func benchScan(b *testing.B, n int) {
	s := event.NewScheduler()
	m := NewMedium(s, testCfg())
	m.SetHandler(&recorder{})
	rng := xrand.New(1)
	for i := 0; i < n; i++ {
		m.Add(fixed(i, geo.Point{X: rng.Float64() * 4500, Y: rng.Float64() * 3400}))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.scan(float64(i))
	}
}

// BenchmarkScan45Nodes measures a proximity scan over the paper's
// population: 40 vehicles + 5 relays.
func BenchmarkScan45Nodes(b *testing.B) { benchScan(b, 45) }

// BenchmarkScan500Nodes measures the spatial grid at 11x the paper's
// density, where a naive O(n²) scan would dominate the whole simulation.
func BenchmarkScan500Nodes(b *testing.B) { benchScan(b, 500) }
