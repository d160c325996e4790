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

// outcome is one transfer outcome a TransferHandler saw.
type outcome struct {
	from, to int
	at       float64
}

// outcomes is a TransferHandler that logs every outcome in order.
type outcomes struct{ done, aborted []outcome }

func (o *outcomes) TransferDone(now float64, from, to int) {
	o.done = append(o.done, outcome{from, to, now})
}

func (o *outcomes) TransferAborted(now float64, from, to int) {
	o.aborted = append(o.aborted, outcome{from, to, now})
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

	out := &outcomes{}
	m.SetTransferHandler(out)
	ok := m.StartTransfer(0, 1, units.MB(1.5)) // 2 s at 6 Mbit/s
	if !ok {
		t.Fatal("StartTransfer refused")
	}
	if !m.Busy(0) || !m.Busy(1) {
		t.Fatal("endpoints not busy during transfer")
	}
	s.RunUntil(5)
	if len(out.aborted) != 0 {
		t.Fatal("transfer aborted")
	}
	if want := []outcome{{0, 1, 2.5}}; !slices.Equal(out.done, want) {
		t.Fatalf("completions %v, want %v", out.done, want)
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
	if m.StartTransfer(0, 1, units.KB(1)) {
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
	if !m.StartTransfer(0, 1, units.MB(10)) {
		t.Fatal("first transfer refused")
	}
	// 0 and 1 are now busy; 2 is idle but its peers are busy.
	if m.StartTransfer(2, 0, units.KB(1)) {
		t.Fatal("transfer to busy receiver started")
	}
	if m.StartTransfer(1, 2, units.KB(1)) {
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

	out := &outcomes{}
	m.SetTransferHandler(out)
	// 100 Mbit => ~16.7 s at 6 Mbit/s: cannot finish before separation.
	if !m.StartTransfer(0, 1, units.MB(12.5)) {
		t.Fatal("transfer refused")
	}
	s.RunUntil(30)
	if len(out.done) != 0 {
		t.Fatal("doomed transfer completed")
	}
	if len(out.aborted) != 1 || out.aborted[0].from != 0 || out.aborted[0].to != 1 {
		t.Fatalf("aborts %v, want one of 0->1", out.aborted)
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

	out := &outcomes{}
	m.SetTransferHandler(out)
	if !m.StartTransfer(0, 1, units.MB(1.5)) {
		t.Fatal("stable-pair transfer refused")
	}
	if !m.StartTransfer(2, 3, units.MB(12.5)) {
		t.Fatal("doomed-pair transfer refused")
	}
	s.RunUntil(30)
	if len(out.done) != 1 || out.done[0].from != 0 {
		t.Fatalf("completions %v: stable pair's transfer was lost", out.done)
	}
	if len(out.aborted) != 1 || out.aborted[0].from != 2 {
		t.Fatalf("aborts %v: doomed pair's transfer not aborted", out.aborted)
	}
}

func TestContactUpHandlerCanStartTransferImmediately(t *testing.T) {
	s := event.NewScheduler()
	m := NewMedium(s, testCfg())
	started := false
	rec := &recorder{onUp: func(now float64, a, b Entity) {
		started = m.StartTransfer(a.ID(), b.ID(), units.KB(10))
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
	m.StartTransfer(1, 1, units.KB(1))
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

// restarter keeps a transfer on the air between from and to: each
// contact-up and each completion starts the next one. It counts outcomes
// without recording them, so it allocates nothing itself.
type restarter struct {
	m             *Medium
	from, to      int
	size          units.Bytes
	done, aborted int
}

func (r *restarter) ContactUp(float64, Entity, Entity)   { r.m.StartTransfer(r.from, r.to, r.size) }
func (r *restarter) ContactDown(float64, Entity, Entity) {}
func (r *restarter) TransferDone(float64, int, int) {
	r.done++
	r.m.StartTransfer(r.from, r.to, r.size)
}
func (r *restarter) TransferAborted(float64, int, int) { r.aborted++ }

// TestTransferCyclesAllocateNothing: once a finished transfer record is on
// the free list, neither a start→complete nor a start→abort cycle
// allocates. The completion handler restarts the transfer inside the
// callback, which is where the simulator's pump starts the next one.
func TestTransferCyclesAllocateNothing(t *testing.T) {
	t.Run("complete", func(t *testing.T) {
		s := event.NewScheduler()
		m := NewMedium(s, testCfg())
		r := &restarter{m: m, from: 0, to: 1, size: units.KB(375)} // 0.5 s
		m.SetHandler(r)
		m.SetTransferHandler(r)
		m.Add(fixed(0, geo.Point{}))
		m.Add(fixed(1, geo.Point{X: 10}))
		m.Start(0)
		s.RunUntil(3)
		if allocs := testing.AllocsPerRun(50, func() { s.RunUntil(s.Now() + 1) }); allocs != 0 {
			t.Fatalf("a second of back-to-back transfers allocates %v times", allocs)
		}
		if r.done < 100 || r.aborted != 0 {
			t.Fatalf("completed %d, aborted %d", r.done, r.aborted)
		}
	})
	t.Run("abort", func(t *testing.T) {
		s := event.NewScheduler()
		m := NewMedium(s, testCfg())
		r := &restarter{m: m, from: 1, to: 0, size: units.MB(12.5)} // 16.7 s
		m.SetHandler(r)
		m.SetTransferHandler(r)
		m.Add(fixed(0, geo.Point{}))
		// In range on even seconds, out of range on odd ones.
		m.Add(&scripted{id: 1, fn: func(now float64) geo.Point {
			if int(now)%2 == 0 {
				return geo.Point{X: 10}
			}
			return geo.Point{X: 1000}
		}})
		m.Start(0)
		s.RunUntil(4.5)
		if allocs := testing.AllocsPerRun(50, func() { s.RunUntil(s.Now() + 2) }); allocs != 0 {
			t.Fatalf("a contact's start→abort cycle allocates %v times", allocs)
		}
		if r.aborted < 50 || r.done != 0 {
			t.Fatalf("aborted %d, completed %d", r.aborted, r.done)
		}
	})
}

// abortRelay starts a transfer from 0 to 2 inside the abort handler,
// the way the simulator's pump moves a freed radio to another contact.
type abortRelay struct {
	outcomes
	m       *Medium
	started bool
}

func (h *abortRelay) TransferAborted(now float64, from, to int) {
	h.outcomes.TransferAborted(now, from, to)
	h.started = h.m.StartTransfer(0, 2, units.MB(1.5)) // 2 s
}

// TestAbortHandlerCanStartTransfer: the aborted transfer's radios are free
// when the handler runs, and a transfer the handler starts runs to
// completion on its own record.
func TestAbortHandlerCanStartTransfer(t *testing.T) {
	s := event.NewScheduler()
	m := NewMedium(s, testCfg())
	h := &abortRelay{m: m}
	m.SetHandler(&recorder{})
	m.SetTransferHandler(h)
	for id := range 3 {
		m.Add(fixed(id, geo.Point{}))
	}
	m.StartPlan([]ContactWindow{{A: 0, B: 1, Start: 0, End: 5}, {A: 0, B: 2, Start: 0, End: 20}})
	s.RunUntil(1)
	if !m.StartTransfer(0, 1, units.MB(12.5)) {
		t.Fatal("transfer on (0,1) refused")
	}
	s.RunUntil(5)
	if !h.started || !m.Busy(0) || !m.Busy(2) || m.Busy(1) {
		t.Fatalf("after the abort: started %v, busy %v %v %v", h.started, m.Busy(0), m.Busy(1), m.Busy(2))
	}
	s.RunUntil(20)
	if want := []outcome{{0, 1, 5}}; !slices.Equal(h.aborted, want) {
		t.Fatalf("aborts %v, want %v", h.aborted, want)
	}
	if want := []outcome{{0, 2, 7}}; !slices.Equal(h.done, want) {
		t.Fatalf("completions %v, want %v", h.done, want)
	}
}
