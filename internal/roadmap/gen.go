package roadmap

import (
	"fmt"
	"math"
	"sort"

	"vdtn/internal/geo"
	"vdtn/internal/xrand"
)

// Grid returns a rows x cols rectangular street grid with the given block
// spacing in metres, the classic synthetic road network. Vertices are
// numbered row-major from (0,0). It panics if rows or cols < 2 or spacing
// is not positive.
func Grid(rows, cols int, spacing float64) *Graph {
	if rows < 2 || cols < 2 {
		panic(fmt.Sprintf("roadmap: Grid(%d, %d) needs at least 2x2", rows, cols))
	}
	if spacing <= 0 {
		panic("roadmap: Grid with non-positive spacing")
	}
	g := New()
	ids := make([][]int, rows)
	for r := 0; r < rows; r++ {
		ids[r] = make([]int, cols)
		for c := 0; c < cols; c++ {
			ids[r][c] = g.AddVertex(geo.Point{X: float64(c) * spacing, Y: float64(r) * spacing})
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.AddEdge(ids[r][c], ids[r][c+1])
			}
			if r+1 < rows {
				g.AddEdge(ids[r][c], ids[r+1][c])
			}
		}
	}
	return g
}

// helsinkiSeed fixes the synthetic map so that every simulation run, on any
// seed, uses the identical road network — the map is part of the scenario,
// not of the randomness.
const helsinkiSeed = 0x48454C53494E4B49 // "HELSINKI"

// HelsinkiLike returns the synthetic stand-in for the ONE simulator's
// "small part of the city of Helsinki" map used by the paper.
//
// Substitution note: the original WKT street data is not redistributable
// here, so we generate a road network with the same properties the
// experiments actually depend on — the ~4500 m x 3400 m extent of the
// ONE's Helsinki clip, city-block road density (~150 intersections, blocks
// of roughly 250-350 m), irregular (jittered) junction placement, a
// sprinkling of missing links so blocks vary in shape, and two diagonal
// arterials. The construction is deterministic.
func HelsinkiLike() *Graph {
	const (
		width   = 4500.0
		height  = 3400.0
		cols    = 15
		rows    = 11
		jitterX = 55.0
		jitterY = 50.0
	)
	rng := xrand.New(helsinkiSeed)
	g := New()

	dx := width / float64(cols-1)
	dy := height / float64(rows-1)
	ids := make([][]int, rows)
	for r := 0; r < rows; r++ {
		ids[r] = make([]int, cols)
		for c := 0; c < cols; c++ {
			jx := rng.UniformFloat(-jitterX, jitterX)
			jy := rng.UniformFloat(-jitterY, jitterY)
			// Keep border intersections on the map boundary so the extent
			// is exactly the ONE clip's extent.
			x := float64(c)*dx + jx
			y := float64(r)*dy + jy
			if c == 0 || c == cols-1 {
				x = float64(c) * dx
			}
			if r == 0 || r == rows-1 {
				y = float64(r) * dy
			}
			ids[r][c] = g.AddVertex(geo.Point{X: x, Y: y})
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.AddEdge(ids[r][c], ids[r][c+1])
			}
			if r+1 < rows {
				g.AddEdge(ids[r][c], ids[r+1][c])
			}
		}
	}

	// Two diagonal arterials, like Helsinki's Mannerheimintie cutting the
	// grid: one from the south-west up to the north-east, one crossing it.
	addDiagonal(g, ids, rows, cols, true)
	addDiagonal(g, ids, rows, cols, false)

	// Prune ~12% of interior edges to make blocks irregular, skipping any
	// removal that would disconnect the network.
	pruneEdges(g, rng, 0.12)

	if err := g.Validate(); err != nil {
		// The construction above guarantees validity; a failure here is a
		// programming error, not a runtime condition.
		panic("roadmap: HelsinkiLike produced invalid map: " + err.Error())
	}
	return g
}

// addDiagonal threads an arterial through the grid interior.
func addDiagonal(g *Graph, ids [][]int, rows, cols int, rising bool) {
	steps := min(rows, cols) - 1
	for i := 0; i < steps; i++ {
		r0, c0 := i, i
		r1, c1 := i+1, i+1
		if !rising {
			r0, r1 = rows-1-i, rows-2-i
		}
		if c1 < cols && r1 >= 0 && r1 < rows {
			g.AddEdge(ids[r0][c0], ids[r1][c1])
		}
	}
}

// pruneEdges removes about frac of the edges uniformly at random while
// preserving connectivity. Removal order is deterministic in rng.
func pruneEdges(g *Graph, rng *xrand.Rand, frac float64) {
	type pair struct{ a, b int }
	var all []pair
	for a := 0; a < g.VertexCount(); a++ {
		for _, e := range g.adj[a] {
			if e.to > a {
				all = append(all, pair{a, e.to})
			}
		}
	}
	target := int(frac * float64(len(all)))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	removed := 0
	for _, p := range all {
		if removed >= target {
			break
		}
		if g.removeEdgeIfKeepsConnected(p.a, p.b) {
			removed++
		}
	}
}

// removeEdgeIfKeepsConnected removes edge (a, b) unless doing so would
// disconnect the graph or isolate a vertex. It reports whether it removed.
func (g *Graph) removeEdgeIfKeepsConnected(a, b int) bool {
	if g.Degree(a) < 2 || g.Degree(b) < 2 {
		return false
	}
	g.detachEdge(a, b)
	if !g.Connected() {
		// Put it back.
		w := g.pts[a].Dist(g.pts[b])
		g.adj[a] = append(g.adj[a], edge{b, w})
		g.adj[b] = append(g.adj[b], edge{a, w})
		g.m++
		g.invalidate()
		return false
	}
	return true
}

func (g *Graph) detachEdge(a, b int) {
	g.adj[a] = dropEdge(g.adj[a], b)
	g.adj[b] = dropEdge(g.adj[b], a)
	g.m--
	g.invalidate()
}

func dropEdge(es []edge, to int) []edge {
	for i, e := range es {
		if e.to == to {
			return append(es[:i], es[i+1:]...)
		}
	}
	return es
}

// RelaySites returns k intersection ids suitable for stationary relay
// nodes, emulating the paper's "five stationary relay nodes placed at
// predefined map locations" (crossroads spread over the map). Sites are
// chosen deterministically by farthest-point sampling over road distance,
// restricted to crossroads (degree >= 3) and seeded from the map centre, so
// the relays end up well spread and always on busy junctions.
// It panics if the map has fewer than k crossroads.
func RelaySites(g *Graph, k int) []int {
	var cross []int
	for v := 0; v < g.VertexCount(); v++ {
		if g.Degree(v) >= 3 {
			cross = append(cross, v)
		}
	}
	if len(cross) < k {
		panic(fmt.Sprintf("roadmap: RelaySites(%d) but map has only %d crossroads", k, len(cross)))
	}
	centre := g.Bounds().Min.Lerp(g.Bounds().Max, 0.5)

	// First site: the crossroad nearest the map centre.
	first := cross[0]
	bestD := math.Inf(1)
	for _, v := range cross {
		if d := g.Vertex(v).Dist2(centre); d < bestD {
			first, bestD = v, d
		}
	}
	sites := []int{first}

	for len(sites) < k {
		bestV, bestScore := -1, -1.0
		for _, v := range cross {
			if contains(sites, v) {
				continue
			}
			// Distance to the nearest already-chosen site, over roads.
			nearest := math.Inf(1)
			for _, s := range sites {
				if d := g.Distance(s, v); d < nearest {
					nearest = d
				}
			}
			if nearest > bestScore {
				bestV, bestScore = v, nearest
			}
		}
		sites = append(sites, bestV)
	}
	sort.Ints(sites)
	return sites
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
