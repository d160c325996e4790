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
// order equals the pair's lexicographic order, so the scan's sort, merge
// and diff run on single-word comparisons. Node ids are dense, so they fit
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
// incrementally as entities move, and the pair/diff slices are truncated
// and refilled in place. Per-entity slices are indexed by node id, and
// pair sets hold packed pair keys (packPair).
type scanState struct {
	seen      []bool          // entity has been placed in the grid
	pos       []geo.Point     // last observed position
	hint      []StaticUntiler // nil when the entity offers no hint
	staticTil []float64       // position constant through this time
	slot      []int32         // current grid slot of pos
	isMover   []bool          // re-queried this tick (cleared at scan end)

	grid gridState

	movers     []int32   // node ids re-queried this tick
	carry      []uint64  // static-static pairs carried from prev (sorted)
	pairs      []uint64  // in-range pairs involving a mover (sorted)
	curr, prev []uint64  // in-range pairs this and last tick, ascending
	downs, ups []pairKey // per-tick transition staging
}

// gridState is the spatial grid: a flat power-of-two table of buckets of
// node ids, persisting across ticks (an entity moves buckets only when its
// position crosses into another slot). Cell (x, y) lives at slot
// (x mod w, y mod h), row-major, so a geometry wider than the table wraps
// and cells a table width apart share a slot. Wrapping costs no
// correctness: with w, h >= 3 the 3x3 neighbourhood of any cell covers
// nine distinct slots, so the walk meets every entity at most once, and the
// distance test rejects the wrapped strangers. The table size depends on
// the entity count alone, so memory stays bounded for any geometry. Bucket
// order never matters: the pair set is sorted before transitions fire.
type gridState struct {
	wBits        uint      // log2 of the table width w
	wMask, hMask int64     // w-1 and h-1
	cells        [][]int32 // buckets, row-major: x&wMask | (y&hMask)<<wBits
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
// size, as square as the power allows (w = h or w = 2h).
func (g *gridState) reset(slots int) {
	k := uint(bits.TrailingZeros(uint(slots)))
	g.wBits = (k + 1) / 2
	g.wMask = 1<<g.wBits - 1
	g.hMask = 1<<(k-g.wBits) - 1
	g.cells = make([][]int32, slots)
}

// slot returns the table slot of cell ck. The masks take x mod w and
// y mod h for negative coordinates too (two's complement).
func (g *gridState) slot(ck cellKey) int32 {
	return int32(ck.x&g.wMask | (ck.y&g.hMask)<<g.wBits)
}

func (g *gridState) add(i, s int32) {
	g.cells[s] = append(g.cells[s], i)
}

// remove swap-deletes node i from slot s's bucket.
func (g *gridState) remove(i, s int32) {
	b := g.cells[s]
	for n, v := range b {
		if v == i {
			b[n] = b[len(b)-1]
			g.cells[s] = b[:len(b)-1]
			return
		}
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
	if slots := gridSlots(len(m.entities)); slots > len(sc.grid.cells) {
		sc.grid.reset(slots)
		for i, placed := range sc.seen {
			if placed {
				sc.slot[i] = sc.grid.slot(cellOf(sc.pos[i], m.cfg.Range))
				sc.grid.add(int32(i), sc.slot[i])
			}
		}
	}
	for i := len(sc.pos); i < len(m.entities); i++ {
		h, _ := m.entities[i].(StaticUntiler)
		sc.seen = append(sc.seen, false)
		sc.pos = append(sc.pos, geo.Point{})
		sc.hint = append(sc.hint, h)
		sc.staticTil = append(sc.staticTil, math.Inf(-1))
		sc.slot = append(sc.slot, 0)
		sc.isMover = append(sc.isMover, false)
	}
}

// findPairs appends every in-range pair involving a mover to sc.pairs,
// via the mover's 3x3 cell neighbourhood (nine slots, wrapping at the
// table edges). Mover-mover pairs are enumerated from both ends; the
// smaller-index end claims the pair, so each pair is found exactly once.
func (m *Medium) findPairs() {
	sc := &m.sc
	g := &sc.grid
	r2 := m.cfg.Range * m.cfg.Range
	pairs := sc.pairs[:0]
	for _, i := range sc.movers {
		sx, sy := int64(sc.slot[i])&g.wMask, int64(sc.slot[i])>>g.wBits
		pi := sc.pos[i]
		for dy := int64(-1); dy <= 1; dy++ {
			row := ((sy + dy) & g.hMask) << g.wBits
			for dx := int64(-1); dx <= 1; dx++ {
				for _, j := range g.cells[row|(sx+dx)&g.wMask] {
					if j == i || (sc.isMover[j] && j < i) {
						continue
					}
					if pi.Dist2(sc.pos[j]) <= r2 {
						pairs = append(pairs, packPair(min(i, j), max(i, j)))
					}
				}
			}
		}
	}
	sc.pairs = pairs
}

// mergePairs rebuilds sc.curr from the sorted carry and mover pairs,
// ascending. The two inputs are disjoint (carry holds only non-mover
// pairs), but equal keys are skipped anyway, so a duplicate could never
// double-fire a transition.
func (m *Medium) mergePairs() {
	sc := &m.sc
	carry, pairs := sc.carry, sc.pairs
	sc.curr = sc.curr[:0]
	for len(carry) > 0 || len(pairs) > 0 {
		var ku uint64
		if len(pairs) == 0 || (len(carry) > 0 && carry[0] <= pairs[0]) {
			ku, carry = carry[0], carry[1:]
		} else {
			ku, pairs = pairs[0], pairs[1:]
		}
		if n := len(sc.curr); n > 0 && sc.curr[n-1] == ku {
			continue
		}
		sc.curr = append(sc.curr, ku)
	}
}

// scan recomputes the proximity graph and fires contact transitions.
//
// The scan is incremental: entities whose StaticUntil hint covers this
// tick keep their cached position and grid cell, so only movers are
// re-queried and re-bucketed. The current in-range pair set is then the
// carried-over pairs between two non-movers (their membership cannot have
// changed) plus every in-range pair involving at least one mover, found
// through the mover's 3x3 cell neighbourhood. The carried pairs are
// already sorted (a subsequence of the previous sorted set), so only the
// mover pairs are sorted before a two-way merge rebuilds the full set.
// Diffing it against the previous tick's yields the transitions; downs
// fire first (freeing the endpoints' radios before new-contact handlers
// try to start transfers on this same tick), then ups, each ascending by
// pair — the exact firing order of the original full-rescan
// implementation, so runs are byte-identical.
func (m *Medium) scan(now float64) {
	sc := &m.sc
	if len(sc.pos) < len(m.entities) {
		m.growScanState()
	}

	// Re-query every entity whose cached position is not covered by a
	// static-until hint, and move it to its new grid slot. Bucket order
	// is not meaningful (removal swap-deletes); determinism comes from
	// sorting the pair set before transitions fire.
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

	// Carry pairs between two non-movers: both endpoints kept last tick's
	// position, so membership is unchanged and the previous (sorted) set
	// already holds the answer.
	sc.carry = sc.carry[:0]
	for _, ku := range sc.prev {
		if !sc.isMover[ku>>32] && !sc.isMover[uint32(ku)] {
			sc.carry = append(sc.carry, ku)
		}
	}

	m.findPairs()
	slices.Sort(sc.pairs)
	m.mergePairs()

	// Diff against the previous tick: both slices are ascending, so one
	// merge walk splits the symmetric difference into downs and ups.
	sc.downs, sc.ups = sc.downs[:0], sc.ups[:0]
	i, j := 0, 0
	for i < len(sc.prev) && j < len(sc.curr) {
		switch pu, cu := sc.prev[i], sc.curr[j]; {
		case pu < cu:
			sc.downs = append(sc.downs, unpackPair(pu))
			i++
		case pu > cu:
			sc.ups = append(sc.ups, unpackPair(cu))
			j++
		default:
			i, j = i+1, j+1
		}
	}
	for ; i < len(sc.prev); i++ {
		sc.downs = append(sc.downs, unpackPair(sc.prev[i]))
	}
	for ; j < len(sc.curr); j++ {
		sc.ups = append(sc.ups, unpackPair(sc.curr[j]))
	}
	for _, k := range sc.downs {
		m.drop(now, k)
	}
	for _, k := range sc.ups {
		m.raise(now, k)
	}

	sc.prev, sc.curr = sc.curr, sc.prev
	for _, i := range sc.movers {
		sc.isMover[i] = false
	}
}
