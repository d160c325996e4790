package wireless

import (
	"math"
	"math/bits"
	"slices"

	"vdtn/internal/geo"
)

// StaticUntiler is an optional Entity extension for the live proximity
// scan: StaticUntil reports a simulation time through which the entity's
// position is guaranteed not to change, so the scan can skip re-querying
// it until then. The medium calls StaticUntil immediately after
// Position(now) with the same now; returning a value <= now promises
// nothing (the entity is re-queried on the next tick). Stationary relays
// return +Inf; paused walkers return the end of their pause.
type StaticUntiler interface {
	StaticUntil(now float64) float64
}

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

// scanState is the live scan's working set. Everything here is allocated
// on the first tick and reused for every subsequent one, so a steady-state
// scan performs no allocations: the position cache and grid are updated
// incrementally as entities move, and the transition slices are truncated
// and refilled in place. Per-entity slices are indexed by node id. The
// previous tick's pair set is not kept here: it is the medium's adjacency
// lists, which only the scan's own transitions change.
type scanState struct {
	seen      []bool          // entity has been placed in the grid
	pos       []geo.Point     // last observed position
	hint      []StaticUntiler // nil when the entity offers no hint
	staticTil []float64       // position constant through this time
	slot      []int32         // current grid slot of pos
	isMover   []bool          // re-queried this tick (cleared at scan end)

	grid gridState

	movers     []int32  // node ids re-queried this tick
	downs, ups []uint64 // this tick's transitions, packed (packPair)
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
// size, as square as the power allows (w = h or w = 2h). Node links are
// rewritten as nodes are added back.
func (g *gridState) reset(slots int) {
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

// growScanState sizes the per-entity scan arrays for entities added since
// the last tick (on the first tick, all of them). When the entity count
// outgrows the grid table, a larger table replaces it and every placed
// entity is re-homed from its cached position.
func (m *Medium) growScanState() {
	sc := &m.sc
	n := len(m.entities)
	if slots := gridSlots(n); slots > len(sc.grid.head) {
		sc.grid.reset(slots)
		for i, placed := range sc.seen {
			if placed {
				sc.slot[i] = sc.grid.slot(cellOf(sc.pos[i], m.cfg.Range))
				sc.grid.add(int32(i), sc.slot[i])
			}
		}
	}
	for i := len(sc.pos); i < n; i++ {
		h, _ := m.entities[i].(StaticUntiler)
		sc.seen = append(sc.seen, false)
		sc.pos = append(sc.pos, geo.Point{})
		sc.hint = append(sc.hint, h)
		sc.staticTil = append(sc.staticTil, math.Inf(-1))
		sc.slot = append(sc.slot, 0)
		sc.isMover = append(sc.isMover, false)
		sc.grid.next = append(sc.grid.next, -1)
		sc.grid.prev = append(sc.grid.prev, -1)
	}
}

// findTransitions collects this tick's transitions, packed, into sc.downs
// and sc.ups. A pair whose ends both kept their position keeps its state,
// so only pairs with a mover are examined, against the adjacency lists,
// which hold last tick's pair set:
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
			j := int32(p)
			if sc.isMover[j] && j < i {
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
					if j == i || (sc.isMover[j] && j < i) {
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
// The scan is incremental: entities whose StaticUntil hint covers this
// tick keep their cached position and grid slot, so only movers are
// re-queried and re-linked, and only pairs involving a mover are
// examined (findTransitions). A tick costs O(nodes) for the hint check
// plus, per mover, its 3x3 neighbourhood and its peer list — work in
// proportion to what moved, not to the contact set. Downs fire first
// (freeing the endpoints' radios before new-contact handlers try to start
// transfers on this same tick), then ups, each ascending by pair — the
// exact firing order of the original full-rescan implementation, so runs
// are byte-identical.
func (m *Medium) scan(now float64) {
	sc := &m.sc
	if len(sc.pos) < len(m.entities) {
		m.growScanState()
	}

	// Re-query every entity whose cached position is not covered by a
	// static-until hint, and move it to its new grid slot.
	sc.movers = sc.movers[:0]
	for n, e := range m.entities {
		i := int32(n)
		if sc.seen[i] && sc.staticTil[i] > now {
			continue
		}
		p := e.Position(now)
		til := now
		if h := sc.hint[i]; h != nil {
			til = h.StaticUntil(now)
		}
		sc.pos[i] = p
		sc.staticTil[i] = til
		s := sc.grid.slot(cellOf(p, m.cfg.Range))
		switch {
		case !sc.seen[i]:
			sc.seen[i] = true
			sc.grid.add(i, s)
		case s != sc.slot[i]:
			sc.grid.remove(i, sc.slot[i])
			sc.grid.add(i, s)
		}
		sc.slot[i] = s
		sc.isMover[i] = true
		sc.movers = append(sc.movers, i)
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
		sc.isMover[i] = false
	}
}
