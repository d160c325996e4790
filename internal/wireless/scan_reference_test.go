package wireless

import (
	"math"
	"slices"

	"vdtn/internal/geo"
)

// proximityPairsReference is the original full-rescan pair computation: it
// queries every entity's position each call and rebuilds the grid and pair
// set from scratch. It is the oracle for the grid equivalence property
// tests and the "before" leg of the scan benchmarks.
func (m *Medium) proximityPairsReference(now float64) map[pairKey]bool {
	n := len(m.sc.ents)
	pos := make([]geo.Point, n)
	for i, e := range m.sc.ents {
		pos[i] = e.Position(now)
	}
	cell := m.cfg.Range
	grid := make(map[cellKey][]int, n)
	ck := func(p geo.Point) cellKey {
		return cellKey{int64(math.Floor(p.X / cell)), int64(math.Floor(p.Y / cell))}
	}
	for i, p := range pos {
		k := ck(p)
		grid[k] = append(grid[k], i)
	}
	r2 := m.cfg.Range * m.cfg.Range
	links := 0 // twice the previous pair count, which sizes the map
	for _, peers := range m.adj {
		links += len(peers)
	}
	pairs := make(map[pairKey]bool, links/2)
	for i, p := range pos {
		base := ck(p)
		for dx := int64(-1); dx <= 1; dx++ {
			for dy := int64(-1); dy <= 1; dy++ {
				for _, j := range grid[cellKey{base.x + dx, base.y + dy}] {
					if j <= i {
						continue
					}
					if pos[i].Dist2(pos[j]) <= r2 {
						pairs[key(i, j)] = true
					}
				}
			}
		}
	}
	return pairs
}

// scanReference replays the pre-adjacency scan algorithm end to end
// (full position rescan, fresh maps, diff plus sort) without firing
// transitions. It exists so the scan benchmarks can measure the old cost
// on the same scenario state the incremental scan runs on. The previous
// contact set is read from the adjacency lists, each pair once from its
// lower-id end.
func (m *Medium) scanReference(now float64) (downs, ups []pairKey) {
	curr := m.proximityPairsReference(now)
	for id, peers := range m.adj {
		for _, p := range peers {
			if k := key(id, p); id < p && !curr[k] {
				downs = append(downs, k)
			}
		}
	}
	slices.SortFunc(downs, comparePairs)
	for k := range curr {
		if !m.Connected(k[0], k[1]) {
			ups = append(ups, k)
		}
	}
	slices.SortFunc(ups, comparePairs)
	return downs, ups
}
