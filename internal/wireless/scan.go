package wireless

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"vdtn/internal/geo"
)

// MotionHint is an optional Entity extension for the live proximity
// scan. It makes two promises about the trajectory after a query at now:
//   - the position is constant through StaticUntil(now);
//   - after that, the entity moves no faster than MaxSpeed metres per
//     second, so between times t1 and t2 it moves at most MaxSpeed·(t2−t1).
//
// The medium calls StaticUntil immediately after Position(now) with the
// same now; a value <= now promises no stillness. MaxSpeed is read once,
// when the scan starts. Stationary relays return +Inf and 0; map walkers
// return the end of their pause and their top speed.
//
// The scan uses the promises to leave an entity unqueried until one of its
// pairs could change state (see scan). An entity without the hint is
// re-queried on every tick, and its speed counts as unbounded: while one
// is scanned, no entity sleeps between queries except through a
// StaticUntil window.
type MotionHint interface {
	StaticUntil(now float64) float64
	MaxSpeed() float64
}

// sleepTicks is the most ticks a drifting entity goes unqueried: it is
// re-queried at least on every (sleepTicks+1)-th tick. The coarse grid's
// cell side grows with it, and so does the number of entities a sleep
// search meets.
const sleepTicks = 4

// wakeMargin is the slack, in metres beyond the radio range, that a
// sleeping entity keeps from every other entity. It absorbs the rounding
// of positions, tick times and the closed-form bound.
const wakeMargin = 1

// crowdLimit is the most other entities a sleep search may meet in its
// 3x3 coarse block, on average over the entities, for drifting sleep to
// be switched on. A search reads every entity of the block, while a
// skipped tick saves one position query and one fine walk, so where the
// blocks are crowded the searches cost more than the sleeps save.
const crowdLimit = 2

// cellKey addresses one cell of the uniform spatial grid (cell size =
// radio range), in unbounded cell coordinates.
type cellKey struct{ x, y int64 }

// cellOf returns the cell of the given size that holds p.
func cellOf(p geo.Point, size float64) cellKey {
	return cellKey{int64(math.Floor(p.X / size)), int64(math.Floor(p.Y / size))}
}

// packPair collapses the pair (a, b), a < b, into one uint64 whose numeric
// order equals the pair's lexicographic order, so the scan sorts its
// transitions on single-word comparisons. Node ids are dense, so they fit
// in 32 bits.
func packPair(a, b int32) uint64 {
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// unpackPair restores the pairKey from its packed form.
func unpackPair(u uint64) pairKey {
	return pairKey{int(u >> 32), int(uint32(u))}
}

// scanState is the live scan's working set. Its entities are fixed at
// Start, which sizes every per-entity slice once; the transition slices
// grow on the first ticks and are truncated and refilled in place after,
// so a steady-state scan performs no allocations: the position cache and
// grid are updated incrementally as entities move. Per-entity slices are
// indexed by node id. The previous tick's pair set is not kept here: it
// is the medium's adjacency lists, which only the scan's own transitions
// change.
//
// Each entity has one wake time: it is skipped on every tick before it.
// Every observed entity is linked in grid at its last observed position;
// that position is exact for all but drifting sleepers, which the walks
// skip.
type scanState struct {
	ents  []Entity     // each node's position source, from Start
	pos   []geo.Point  // last observed position
	drift []drift      // how far each entity can have moved since
	hint  []MotionHint // nil when the entity offers no hint
	wake  []float64    // re-queried on the first tick at or after this time
	slot  []int32      // grid slot of pos, -1 before the first query
	cslot []int32      // coarse slot of pos, while coarse is in use
	state []uint8      // stateStill, stateMover or stateAsleep

	grid gridState // cell side Range
	// coarse holds every entity at its last observed position too, in
	// cells of side Range + wakeMargin + 3·vmax·sleepTicks·ScanInterval.
	// It is in use (non-nil head) only while drifting sleep is on
	// (planSleep).
	coarse gridState

	movers     []int32  // node ids re-queried this tick
	downs, ups []uint64 // this tick's transitions, packed (packPair)
	planned    bool     // planSleep has run, after the first tick's queries
}

// An entity's scan state between two queries.
const (
	stateStill  uint8 = iota // its cached position is exact
	stateMover               // re-queried this tick; still again when the tick ends
	stateAsleep              // a drifting sleeper: its cached position is stale
)

// drift bounds an entity's motion since its last query: it stands still
// through from, then moves at most speed metres per second.
type drift struct {
	from  float64 // the query time or StaticUntil, the later
	speed float64 // the hint's MaxSpeed, +Inf without a hint
}

// gridState is the spatial grid: a flat power-of-two table of slots, each
// the head of a doubly linked list of the node ids in it, persisting
// across ticks (an entity changes lists only when its position crosses
// into another slot, and linking or unlinking it is O(1)). Cell (x, y)
// lives at slot (x mod w, y mod h), row-major, so a geometry wider than
// the table wraps and cells a table width apart share a slot. Wrapping
// costs no correctness: with w, h >= 3 the 3x3 neighbourhood of any cell
// covers nine distinct slots, so the walk meets every entity at most once,
// and the distance test rejects the wrapped strangers. The table size
// depends on the entity count alone, so memory stays bounded for any
// geometry. List order never matters: transitions are sorted before they
// fire.
type gridState struct {
	side         float64 // cell side in metres
	wBits        uint    // log2 of the table width w
	wMask, hMask int64   // w-1 and h-1
	head         []int32 // first node in each slot, -1 when empty
	next, prev   []int32 // per node: its list neighbours, -1 at the ends
}

// gridMinSlots is the smallest table: 64x64 cells, about 1.9 km square at
// the paper's 30 m range.
const gridMinSlots = 1 << 12

// gridSlots returns the table size for n entities: the smallest power of
// two that is at least gridMinSlots and at least two slots per entity.
func gridSlots(n int) int {
	slots := gridMinSlots
	for slots < 2*n {
		slots <<= 1
	}
	return slots
}

// reset replaces the table with an empty one of the given power-of-two
// size, as square as the power allows (w = h or w = 2h), for cells of the
// given side. Node links are written as nodes are added.
func (g *gridState) reset(slots int, side float64) {
	g.side = side
	k := uint(bits.TrailingZeros(uint(slots)))
	g.wBits = (k + 1) / 2
	g.wMask = 1<<g.wBits - 1
	g.hMask = 1<<(k-g.wBits) - 1
	g.head = make([]int32, slots)
	for s := range g.head {
		g.head[s] = -1
	}
}

// slot returns the table slot of cell ck. The masks take x mod w and
// y mod h for negative coordinates too (two's complement).
func (g *gridState) slot(ck cellKey) int32 {
	return int32(ck.x&g.wMask | (ck.y&g.hMask)<<g.wBits)
}

// slotOf returns the table slot of the cell that holds p.
func (g *gridState) slotOf(p geo.Point) int32 {
	return g.slot(cellOf(p, g.side))
}

// move links node i in slot s, unlinking it from slot old first; old < 0
// means it is not linked.
func (g *gridState) move(i, old, s int32) {
	if old == s {
		return
	}
	if old >= 0 {
		g.remove(i, old)
	}
	g.add(i, s)
}

// near reports whether slots s and t lie in each other's 3x3
// neighbourhood, the slots the scan's walk from either one visits.
func (g *gridState) near(s, t int32) bool {
	dx := (int64(t) - int64(s)) & g.wMask
	dy := (int64(t)>>g.wBits - int64(s)>>g.wBits) & g.hMask
	return (dx <= 1 || dx == g.wMask) && (dy <= 1 || dy == g.hMask)
}

// add links node i at the head of slot s.
func (g *gridState) add(i, s int32) {
	h := g.head[s]
	g.next[i], g.prev[i] = h, -1
	if h >= 0 {
		g.prev[h] = i
	}
	g.head[s] = i
}

// remove unlinks node i from slot s.
func (g *gridState) remove(i, s int32) {
	n, p := g.next[i], g.prev[i]
	if p >= 0 {
		g.next[p] = n
	} else {
		g.head[s] = n
	}
	if n >= 0 {
		g.prev[n] = p
	}
}

// comparePairs orders pairKeys lexicographically.
func comparePairs(a, b pairKey) int {
	if a[0] != b[0] {
		if a[0] < b[0] {
			return -1
		}
		return 1
	}
	switch {
	case a[1] < b[1]:
		return -1
	case a[1] > b[1]:
		return 1
	}
	return 0
}

// initScanState sizes the scan's working set for the entities Start
// hands it, reading each one's motion hint and speed bound. No entity is
// observed yet: each wakes on the first tick, and the grid files it then.
func (m *Medium) initScanState(ents []Entity) {
	sc := &m.sc
	n := len(ents)
	sc.ents = ents
	sc.pos = make([]geo.Point, n)
	sc.drift = make([]drift, n)
	sc.hint = make([]MotionHint, n)
	sc.wake = make([]float64, n)
	sc.slot = make([]int32, n)
	sc.cslot = make([]int32, n)
	sc.state = make([]uint8, n)
	for i, e := range ents {
		h, _ := e.(MotionHint)
		speed := math.Inf(1)
		if h != nil {
			if v := h.MaxSpeed(); v >= 0 {
				speed = v
			}
		}
		sc.drift[i] = drift{from: math.Inf(-1), speed: speed}
		sc.hint[i] = h
		sc.wake[i] = math.Inf(-1)
		sc.slot[i], sc.cslot[i] = -1, -1
	}
	sc.grid.reset(gridSlots(n), m.cfg.Range)
	sc.grid.next, sc.grid.prev = make([]int32, n), make([]int32, n)
	sc.coarse.next, sc.coarse.prev = make([]int32, n), make([]int32, n)
}

// planSleep switches drifting sleep on or off, once, after the first
// tick's queries. It stays off while an entity has no speed bound, or
// while the entities' coarse blocks hold more than crowdLimit others on
// average. When on, the coarse grid holds every entity at its last
// observed position, in cells of side
// Range + wakeMargin + 3·vmax·sleepTicks·ScanInterval.
func (m *Medium) planSleep() {
	sc := &m.sc
	vmax := 0.0
	for _, d := range sc.drift {
		vmax = max(vmax, d.speed)
	}
	if math.IsInf(vmax, 1) {
		return
	}
	g := &sc.coarse
	g.reset(gridSlots(len(sc.pos)), m.cfg.Range+wakeMargin+3*vmax*sleepTicks*m.cfg.ScanInterval)
	for i, p := range sc.pos {
		sc.cslot[i] = g.slotOf(p)
		g.add(int32(i), sc.cslot[i])
	}
	met := 0 // each entity meets itself too
	for _, s := range sc.cslot {
		sx, sy := int64(s)&g.wMask, int64(s)>>g.wBits
		for dy := int64(-1); dy <= 1; dy++ {
			row := ((sy + dy) & g.hMask) << g.wBits
			for dx := int64(-1); dx <= 1; dx++ {
				for j := g.head[row|(sx+dx)&g.wMask]; j >= 0; j = g.next[j] {
					met++
				}
			}
		}
	}
	if met-len(sc.pos) > crowdLimit*len(sc.pos) {
		g.head = nil
	}
}

// findTransitions collects this tick's transitions, packed, into sc.downs
// and sc.ups. A pair whose ends both kept their position keeps its state,
// and a pair with a drifting sleeper stays out of range until the sleeper
// wakes, so only pairs of a mover and a non-sleeper are examined, against
// the adjacency lists, which hold last tick's pair set:
//   - ups: pairs the mover's 3x3 walk (nine slots, wrapping at the table
//     edges) finds in range that are not yet connected;
//   - downs: the mover's connected peers that the walk would no longer
//     find in range — out of range, or (on a float edge) out of the 3x3
//     neighbourhood.
//
// A pair of two movers is seen from both ends; the smaller id claims it,
// so each transition is collected exactly once.
func (m *Medium) findTransitions() {
	sc := &m.sc
	g := &sc.grid
	r2 := m.cfg.Range * m.cfg.Range
	downs, ups := sc.downs[:0], sc.ups[:0]
	for _, i := range sc.movers {
		si, pi := sc.slot[i], sc.pos[i]
		for _, p := range m.adj[i] {
			j := int32(p) // never asleep: sleepers have no contact
			if sc.state[j] == stateMover && j < i {
				continue
			}
			if pi.Dist2(sc.pos[j]) > r2 || !g.near(si, sc.slot[j]) {
				downs = append(downs, packPair(min(i, j), max(i, j)))
			}
		}
		sx, sy := int64(si)&g.wMask, int64(si)>>g.wBits
		for dy := int64(-1); dy <= 1; dy++ {
			row := ((sy + dy) & g.hMask) << g.wBits
			for dx := int64(-1); dx <= 1; dx++ {
				for j := g.head[row|(sx+dx)&g.wMask]; j >= 0; j = g.next[j] {
					if j == i {
						continue
					}
					if st := sc.state[j]; st == stateAsleep || st == stateMover && j < i {
						continue
					}
					if pi.Dist2(sc.pos[j]) <= r2 && !m.Connected(int(i), int(j)) {
						ups = append(ups, packPair(min(i, j), max(i, j)))
					}
				}
			}
		}
	}
	sc.downs, sc.ups = downs, ups
}

// scan updates the proximity graph and fires contact transitions.
//
// The scan is incremental: an entity is re-queried only on a tick at or
// after its wake time, so only movers are re-queried and re-linked, and
// only pairs involving a mover are examined (findTransitions). The wake
// time comes from the entity's MotionHint:
//   - a parked entity wakes when its StaticUntil window ends; its cached
//     position stays exact, so movers still meet it in the grid;
//   - while drifting sleep is on (planSleep), a driving entity with no
//     contact left after this tick's transitions sleeps until the first
//     tick at which another entity could come within Range + wakeMargin
//     of it, for at most sleepTicks ticks (sleep). Its cached position
//     goes stale, so the walks skip it.
//
// Every sleeper's bound covers every pair it is in, so no entity wakes
// another, and connected drifting entities are queried every tick. A tick
// costs O(nodes) for the wake check plus, per mover, its 3x3
// neighbourhood and its peer list — work in proportion to what moved, not
// to the contact set. Downs fire first (freeing the endpoints' radios
// before new-contact handlers try to start transfers on this same tick),
// then ups, each ascending by pair — the exact firing order of the
// original full-rescan implementation, so runs are byte-identical.
func (m *Medium) scan(now float64) {
	sc := &m.sc
	coarse := sc.coarse.head != nil

	// Re-query every entity that is due, and move it to its new slots.
	sc.movers = sc.movers[:0]
	for n, w := range sc.wake {
		if w > now {
			continue
		}
		i := int32(n)
		p := sc.ents[i].Position(now)
		from := now
		if h := sc.hint[i]; h != nil {
			from = max(from, h.StaticUntil(now))
		}
		sc.pos[i], sc.drift[i].from, sc.wake[i] = p, from, from
		s := sc.grid.slotOf(p)
		sc.grid.move(i, sc.slot[i], s)
		sc.slot[i] = s
		if coarse {
			s = sc.coarse.slotOf(p)
			sc.coarse.move(i, sc.cslot[i], s)
			sc.cslot[i] = s
		}
		sc.state[i] = stateMover
		sc.movers = append(sc.movers, i)
	}
	if !sc.planned {
		sc.planned = true
		m.planSleep()
		coarse = sc.coarse.head != nil
	}

	m.findTransitions()
	slices.Sort(sc.downs)
	slices.Sort(sc.ups)
	for _, ku := range sc.downs {
		m.drop(now, unpackPair(ku))
	}
	for _, ku := range sc.ups {
		m.raise(now, unpackPair(ku))
	}
	for _, i := range sc.movers {
		sc.state[i] = stateStill
		if coarse && sc.wake[i] <= now && len(m.adj[i]) == 0 {
			m.sleep(i, now)
		}
	}
}

// sleep puts the driving, unconnected mover i to sleep until the first
// tick at which another entity could come within Range + wakeMargin of it,
// for at most sleepTicks ticks; it stays awake when that is the next tick.
//
// An entity outside the 3x3 coarse block around i was more than
// Range + wakeMargin + 3·vmax·sleepTicks·ScanInterval from i on some axis
// when last observed. That was at most sleepTicks ticks ago, since no
// sleep is longer, and i skips at most sleepTicks ticks, so over the
// sleep the pair closes in by at most 3·vmax·sleepTicks·ScanInterval and
// stays out of reach. Entities inside the block are bounded one by one
// (closeTime).
func (m *Medium) sleep(i int32, now float64) {
	sc := &m.sc
	g := &sc.coarse
	dt := m.cfg.ScanInterval
	reach := m.cfg.Range + wakeMargin
	pi, di := sc.pos[i], sc.drift[i]
	skip := float64(sleepTicks) // ticks i may go unqueried
	si := sc.cslot[i]
	sx, sy := int64(si)&g.wMask, int64(si)>>g.wBits
	for dy := int64(-1); dy <= 1; dy++ {
		row := ((sy + dy) & g.hMask) << g.wBits
		for dx := int64(-1); dx <= 1; dx++ {
			for j := g.head[row|(sx+dx)&g.wMask]; j >= 0; j = g.next[j] {
				if j == i {
					continue
				}
				// Cheap reject: even at full speed from their free
				// times, the pair cannot close in by the last tick i
				// would skip.
				dj, last := sc.drift[j], now+skip*dt
				d2 := pi.Dist2(sc.pos[j])
				if c := reach + di.speed*max(0, last-di.from) + dj.speed*max(0, last-dj.from); d2 > c*c {
					continue
				}
				t := closeTime(math.Sqrt(d2)-reach, di.from, di.speed, dj.from, dj.speed)
				if k := math.Floor((t - now) / dt); k < skip {
					if k < 1 {
						return // the next tick may see a contact
					}
					skip = k
				}
			}
		}
	}
	sc.wake[i] = now + (skip+0.5)*dt // half a tick off any rounded tick time
	sc.state[i] = stateAsleep
}

// checkScanState verifies the live scan's working set: each grid in use
// files every observed entity in the slot of its cached position, and
// only there; an entity sleeps only while drifting sleep is on, and a
// sleeper has no contact.
func (m *Medium) checkScanState() error {
	sc := &m.sc
	if err := sc.grid.check(sc.slot, sc.pos); err != nil {
		return fmt.Errorf("wireless: grid: %w", err)
	}
	coarse := sc.coarse.head != nil
	if coarse {
		if err := sc.coarse.check(sc.cslot, sc.pos); err != nil {
			return fmt.Errorf("wireless: coarse grid: %w", err)
		}
	}
	for i, st := range sc.state {
		switch {
		case st != stateAsleep:
		case !coarse:
			return fmt.Errorf("wireless: node %d asleep while drifting sleep is off", i)
		case len(m.adj[i]) > 0:
			return fmt.Errorf("wireless: sleeping node %d has contacts %v", i, m.adj[i])
		}
	}
	return nil
}

// check verifies that the table lists exactly the nodes with a slot, each
// in its slot[i], which must be the slot of pos[i], with consistent back
// links.
func (g *gridState) check(slot []int32, pos []geo.Point) error {
	filed := 0
	for i, s := range slot {
		if s < 0 {
			continue
		}
		filed++
		if want := g.slotOf(pos[i]); s != want {
			return fmt.Errorf("node %d filed in slot %d, its position %v lies in slot %d", i, s, pos[i], want)
		}
	}
	listed := 0
	for s, j := range g.head {
		for prev := int32(-1); j >= 0; prev, j = j, g.next[j] {
			if listed++; listed > filed {
				return fmt.Errorf("slots list more nodes than the %d filed", filed)
			}
			if slot[j] != int32(s) || g.prev[j] != prev {
				return fmt.Errorf("node %d listed in slot %d after %d, filed in slot %d after %d", j, s, prev, slot[j], g.prev[j])
			}
		}
	}
	if listed != filed {
		return fmt.Errorf("slots list %d nodes, %d filed", listed, filed)
	}
	return nil
}

// closeTime returns the earliest time at which two entities gap metres too
// far apart could close that gap: each stands still through its own free
// time (fa, fb) and then moves at most at its speed (va, vb). It returns
// -Inf when the gap is already closed.
func closeTime(gap, fa, va, fb, vb float64) float64 {
	if gap <= 0 {
		return math.Inf(-1)
	}
	if fa > fb {
		fa, va, fb, vb = fb, vb, fa, va
	}
	if va > 0 { // only a moves before fb
		if t := fa + gap/va; t <= fb {
			return t
		}
		gap -= va * (fb - fa)
	}
	return fb + gap/(va+vb)
}
