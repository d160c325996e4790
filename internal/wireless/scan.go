package wireless

import (
	"math"
	"slices"

	"vdtn/internal/detmap"
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

// cellKey addresses one cell of the uniform spatial hash grid
// (cell size = radio range).
type cellKey struct{ x, y int64 }

// pack collapses the cell coordinates into one uint64 map key: the
// runtime's fast-path uint64 map access beats hashing the 16-byte struct,
// and the 3x3 neighbourhood walk is the scan's hottest map consumer.
// Truncating to 32 bits per axis collides only for cells 2^32 apart
// (at 30 m cells, ~1.3e11 m — far beyond any scenario geometry).
func (c cellKey) pack() uint64 {
	return uint64(uint32(c.x))<<32 | uint64(uint32(c.y))
}

// packPair collapses a pairKey into one uint64 whose numeric order equals
// the key's lexicographic order, so the scan's sort, merge and diff run on
// single-word comparisons. Entity ids fit in 32 bits (Medium.Add enforces
// it), and key() guarantees k[0] < k[1].
func packPair(k pairKey) uint64 {
	return uint64(uint32(k[0]))<<32 | uint64(uint32(k[1]))
}

// unpackPair restores the pairKey from its packed form.
func unpackPair(u uint64) pairKey {
	return pairKey{int(u >> 32), int(uint32(u))}
}

// pairEntry is one in-range pair in the scan's working set: the packed
// pair key that orders and fires transitions, plus both entity indexes so
// the carry check needs no id->index map lookups.
type pairEntry struct {
	ku   uint64
	a, b int32
}

// scanState is the live scan's working set. Everything here is allocated
// on the first tick and reused for every subsequent one, so a steady-state
// scan performs no allocations: the position cache and grid are updated
// incrementally as entities move, and the pair/diff slices are truncated
// and refilled in place.
type scanState struct {
	seen      []bool          // entity has been placed in the grid
	pos       []geo.Point     // last observed position, by entity index
	ids       []int           // entity id, by entity index
	hint      []StaticUntiler // nil when the entity offers no hint
	staticTil []float64       // position constant through this time
	cell      []cellKey       // current grid cell of pos
	isMover   []bool          // re-queried this tick (cleared at scan end)

	grid gridState

	movers     []int32     // entity indexes re-queried this tick
	carry      []pairEntry // static-static pairs carried from prev (sorted)
	pairs      []pairEntry // in-range pairs involving a mover (sorted)
	curr, prev []pairEntry // in-range pairs this and last tick, ascending
	downs, ups []pairKey   // per-tick transition staging
}

// gridState is the spatial hash: buckets of entity indexes keyed by grid
// cell, persisting across ticks (an entity moves buckets only when its
// position crosses a cell border). Compact geometries — every scenario in
// practice — use a dense row-major array over the occupied bounding box,
// so the scan's 3x3 neighbourhood walk is direct indexing instead of nine
// hash lookups per mover. Geometries too spread out for a dense array
// (area over denseCellCap cells) fall back to a hash map; membership is
// identical either way, and bucket order never matters (the pair set is
// sorted before transitions fire), so the representations are
// byte-equivalent.
type gridState struct {
	dense      bool
	minX, minY int64     // dense array origin, in cell coordinates
	w, h       int64     // dense array extent, in cells
	cells      [][]int32 // dense buckets, row-major: (x-minX) + (y-minY)*w
	m          map[uint64][]int32

	// Occupied-cell bounding box, grown monotonically on every insert;
	// drives the dense/sparse decision and the dense extent.
	occValid                           bool
	occMinX, occMaxX, occMinY, occMaxY int64
}

// gridPad is the dense-array margin, in cells, beyond the occupied
// bounding box, so small drifts don't force a rebuild.
const gridPad = 4

// denseCellCap bounds the dense array's cell count for n entities:
// generous for any bounded scenario map, while pathological geometries
// (two clusters a continent apart) stay on the hash map.
func denseCellCap(n int) int64 { return 8*int64(n) + 1024 }

func (g *gridState) init(n int) {
	if g.m == nil {
		g.m = make(map[uint64][]int32, n/2+1)
	}
}

func (g *gridState) noteOccupied(ck cellKey) {
	if !g.occValid {
		g.occValid = true
		g.occMinX, g.occMaxX, g.occMinY, g.occMaxY = ck.x, ck.x, ck.y, ck.y
		return
	}
	g.occMinX, g.occMaxX = min(g.occMinX, ck.x), max(g.occMaxX, ck.x)
	g.occMinY, g.occMaxY = min(g.occMinY, ck.y), max(g.occMaxY, ck.y)
}

func (g *gridState) denseIdx(ck cellKey) int64 {
	return (ck.x - g.minX) + (ck.y-g.minY)*g.w
}

func (g *gridState) inDense(ck cellKey) bool {
	return ck.x >= g.minX && ck.x < g.minX+g.w &&
		ck.y >= g.minY && ck.y < g.minY+g.h
}

// bucket returns the cell's bucket for the neighbourhood walk (nil when
// empty or out of the dense extent — an out-of-extent cell is necessarily
// unoccupied, since the extent covers the occupied bounding box).
func (g *gridState) bucket(ck cellKey) []int32 {
	if g.dense {
		if !g.inDense(ck) {
			return nil
		}
		return g.cells[g.denseIdx(ck)]
	}
	return g.m[ck.pack()]
}

func (g *gridState) add(i int32, ck cellKey) {
	g.noteOccupied(ck)
	if g.dense {
		if !g.inDense(ck) {
			g.reshape(len(g.cells)) // grow the extent (or go sparse)
			if !g.dense {
				g.m[ck.pack()] = append(g.m[ck.pack()], i)
				return
			}
		}
		idx := g.denseIdx(ck)
		g.cells[idx] = append(g.cells[idx], i)
		return
	}
	g.m[ck.pack()] = append(g.m[ck.pack()], i)
}

// remove swap-deletes entity index i from its cell's bucket.
func (g *gridState) remove(i int32, ck cellKey) {
	var b []int32
	var idx int64
	if g.dense {
		idx = g.denseIdx(ck)
		b = g.cells[idx]
	} else {
		b = g.m[ck.pack()]
	}
	for n, v := range b {
		if v == i {
			b[n] = b[len(b)-1]
			b = b[:len(b)-1]
			break
		}
	}
	if g.dense {
		g.cells[idx] = b
	} else {
		g.m[ck.pack()] = b
	}
}

// reshape re-homes every bucket for the current occupied bounding box:
// into a (padded) dense array when it fits denseCellCap for n entities,
// onto the hash map otherwise. Buckets are moved, not copied.
func (g *gridState) reshape(n int) {
	if !g.occValid {
		return
	}
	w := g.occMaxX - g.occMinX + 1 + 2*gridPad
	h := g.occMaxY - g.occMinY + 1 + 2*gridPad
	capCells := denseCellCap(n)
	toDense := w <= capCells && h <= capCells && w*h <= capCells

	// Collect the occupied buckets from the current representation.
	type occ struct {
		ck cellKey
		b  []int32
	}
	var bs []occ
	if g.dense {
		for y := int64(0); y < g.h; y++ {
			for x := int64(0); x < g.w; x++ {
				if b := g.cells[x+y*g.w]; len(b) > 0 {
					bs = append(bs, occ{cellKey{g.minX + x, g.minY + y}, b})
				}
			}
		}
	} else {
		for _, k := range detmap.Keys(g.m) {
			if b := g.m[k]; len(b) > 0 {
				bs = append(bs, occ{cellKey{int64(int32(k >> 32)), int64(int32(k))}, b})
			}
		}
	}

	g.dense = toDense
	if toDense {
		g.minX, g.minY = g.occMinX-gridPad, g.occMinY-gridPad
		g.w, g.h = w, h
		g.cells = make([][]int32, w*h)
		g.m = make(map[uint64][]int32)
		for _, o := range bs {
			g.cells[g.denseIdx(o.ck)] = o.b
		}
		return
	}
	g.cells = nil
	g.m = make(map[uint64][]int32, len(bs))
	for _, o := range bs {
		g.m[o.ck.pack()] = o.b
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

func comparePairEntries(a, b pairEntry) int {
	switch {
	case a.ku < b.ku:
		return -1
	case a.ku > b.ku:
		return 1
	}
	return 0
}

// growScanState sizes the per-entity scan arrays for entities added since
// the last tick (on the first tick, all of them).
func (m *Medium) growScanState() {
	sc := &m.sc
	sc.grid.init(len(m.entities))
	for i := len(sc.pos); i < len(m.entities); i++ {
		e := m.entities[i]
		h, _ := e.(StaticUntiler)
		sc.seen = append(sc.seen, false)
		sc.pos = append(sc.pos, geo.Point{})
		sc.ids = append(sc.ids, e.ID())
		sc.hint = append(sc.hint, h)
		sc.staticTil = append(sc.staticTil, math.Inf(-1))
		sc.cell = append(sc.cell, cellKey{})
		sc.isMover = append(sc.isMover, false)
	}
}

// findPairs appends every in-range pair involving a mover to sc.pairs,
// via the mover's 3x3 cell neighbourhood. Mover-mover pairs are
// enumerated from both ends; the smaller-index end claims the pair, so
// each pair is found exactly once.
func (m *Medium) findPairs() {
	sc := &m.sc
	r2 := m.cfg.Range * m.cfg.Range
	pairs := sc.pairs[:0]
	for _, i := range sc.movers {
		base := sc.cell[i]
		pi := sc.pos[i]
		idi := sc.ids[i]
		for dx := int64(-1); dx <= 1; dx++ {
			for dy := int64(-1); dy <= 1; dy++ {
				for _, j := range sc.grid.bucket(cellKey{base.x + dx, base.y + dy}) {
					if j == i || (sc.isMover[j] && j < i) {
						continue
					}
					if pi.Dist2(sc.pos[j]) <= r2 {
						pairs = append(pairs, pairEntry{ku: packPair(key(idi, sc.ids[j])), a: i, b: j})
					}
				}
			}
		}
	}
	sc.pairs = pairs
}

// mergePairs rebuilds sc.curr from the sorted carry and mover pairs,
// ascending by packed pair key. The two inputs are disjoint (carry holds
// only non-mover pairs), but equal keys are skipped anyway, so a
// duplicate could never double-fire a transition.
func (m *Medium) mergePairs() {
	sc := &m.sc
	carry, pairs := sc.carry, sc.pairs
	sc.curr = sc.curr[:0]
	for len(carry) > 0 || len(pairs) > 0 {
		var pe pairEntry
		if len(pairs) == 0 || (len(carry) > 0 && carry[0].ku <= pairs[0].ku) {
			pe, carry = carry[0], carry[1:]
		} else {
			pe, pairs = pairs[0], pairs[1:]
		}
		if n := len(sc.curr); n > 0 && sc.curr[n-1].ku == pe.ku {
			continue
		}
		sc.curr = append(sc.curr, pe)
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
	// static-until hint, and move it to its new grid cell. Bucket order
	// is not meaningful (removal swap-deletes); determinism comes from
	// sorting the pair set before transitions fire.
	cell := m.cfg.Range
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
		ck := cellKey{int64(math.Floor(p.X / cell)), int64(math.Floor(p.Y / cell))}
		switch {
		case !sc.seen[i]:
			sc.seen[i] = true
			sc.grid.add(i, ck)
		case ck != sc.cell[i]:
			sc.grid.remove(i, sc.cell[i])
			sc.grid.add(i, ck)
		}
		sc.cell[i] = ck
		sc.isMover[i] = true
		sc.movers = append(sc.movers, i)
	}

	// Densify the grid once the occupied bounding box is known to be
	// compact (checked each tick so late-added entities can flip it; a
	// no-op once dense — the grid then reshapes itself only when an
	// entity leaves the extent).
	if g := &sc.grid; !g.dense && g.occValid {
		w := g.occMaxX - g.occMinX + 1 + 2*gridPad
		h := g.occMaxY - g.occMinY + 1 + 2*gridPad
		if capCells := denseCellCap(len(m.entities)); w <= capCells && h <= capCells && w*h <= capCells {
			g.reshape(len(m.entities))
		}
	}

	// Carry pairs between two non-movers: both endpoints kept last tick's
	// position, so membership is unchanged and the previous (sorted) set
	// already holds the answer.
	sc.carry = sc.carry[:0]
	for _, pe := range sc.prev {
		if !sc.isMover[pe.a] && !sc.isMover[pe.b] {
			sc.carry = append(sc.carry, pe)
		}
	}

	m.findPairs()
	slices.SortFunc(sc.pairs, comparePairEntries)
	m.mergePairs()

	// Diff against the previous tick: both slices are ascending, so one
	// merge walk splits the symmetric difference into downs and ups.
	sc.downs, sc.ups = sc.downs[:0], sc.ups[:0]
	i, j := 0, 0
	for i < len(sc.prev) && j < len(sc.curr) {
		switch pu, cu := sc.prev[i].ku, sc.curr[j].ku; {
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
		sc.downs = append(sc.downs, unpackPair(sc.prev[i].ku))
	}
	for ; j < len(sc.curr); j++ {
		sc.ups = append(sc.ups, unpackPair(sc.curr[j].ku))
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
