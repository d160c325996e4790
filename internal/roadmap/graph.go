// Package roadmap models the road network vehicles move on: an undirected
// graph of intersections (vertices, with planar positions in metres) and
// road stretches (edges, weighted by Euclidean length), with shortest-path
// queries, WKT map loading, and synthetic map generators.
//
// This is the substrate the paper gets from the ONE simulator's map module:
// the evaluation scenario is "a map-based model of a small part of the city
// of Helsinki" over which vehicles do shortest-path movement between random
// map locations. See HelsinkiLike for the map substitution notes.
package roadmap

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"

	"vdtn/internal/geo"
	"vdtn/internal/xrand"
)

// snapEps is the coordinate tolerance (metres) under which two vertices are
// considered the same intersection when building a graph. Map files produced
// by GIS exports routinely repeat junction coordinates with sub-millimetre
// noise.
const snapEps = 1e-3

type edge struct {
	to int
	w  float64 // metres
}

// Graph is an undirected road network. The zero value is not usable;
// use New.
type Graph struct {
	pts  []geo.Point
	adj  [][]edge
	keys map[[2]int64]int // snapped coordinate -> vertex id
	m    int              // number of undirected edges

	// Shortest-path cache, one tree per queried source. Guarded by ssspMu:
	// a graph is assembled single-threaded, but a loaded *Graph is a
	// shareable value — a sweep's Base may hand one map to every
	// cell, the contact cache copies it into recording configs, and
	// callers may run sim.Run in goroutines — so concurrent runs query
	// ShortestPath/Distance on it at once. The trees themselves are
	// immutable after construction and safe to read without the lock;
	// only the cache map needs guarding. Tree contents are a pure function
	// of the graph, so which goroutine populates an entry never affects
	// results.
	ssspMu sync.Mutex
	sssp   map[int]*ssspTree
	queue  pq // Dijkstra's heap, reused by every tree build

	// Validate's memoized result, guarded by ssspMu and cleared with the
	// shortest-path cache: every walker on a map validates it, and the
	// map changes only while it is assembled.
	validated bool
	validErr  error
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{keys: make(map[[2]int64]int)}
}

func snapKey(p geo.Point) [2]int64 {
	return [2]int64{int64(math.Round(p.X / snapEps)), int64(math.Round(p.Y / snapEps))}
}

// AddVertex returns the id of the intersection at p, creating it if no
// vertex lies within the snap tolerance.
func (g *Graph) AddVertex(p geo.Point) int {
	k := snapKey(p)
	if id, ok := g.keys[k]; ok {
		return id
	}
	id := len(g.pts)
	g.pts = append(g.pts, p)
	g.adj = append(g.adj, nil)
	g.keys[k] = id
	g.invalidate()
	return id
}

// AddEdge connects vertices a and b with a road stretch weighted by their
// Euclidean distance. Self-loops and duplicate edges are ignored.
// It panics on out-of-range ids.
func (g *Graph) AddEdge(a, b int) {
	if a < 0 || a >= len(g.pts) || b < 0 || b >= len(g.pts) {
		panic(fmt.Sprintf("roadmap: AddEdge(%d, %d) out of range (%d vertices)", a, b, len(g.pts)))
	}
	if a == b {
		return
	}
	for _, e := range g.adj[a] {
		if e.to == b {
			return
		}
	}
	w := g.pts[a].Dist(g.pts[b])
	g.adj[a] = append(g.adj[a], edge{b, w})
	g.adj[b] = append(g.adj[b], edge{a, w})
	g.m++
	g.invalidate()
}

func (g *Graph) invalidate() {
	g.ssspMu.Lock()
	g.sssp = nil
	g.validated, g.validErr = false, nil
	g.ssspMu.Unlock()
}

// VertexCount returns the number of intersections.
func (g *Graph) VertexCount() int { return len(g.pts) }

// EdgeCount returns the number of undirected road stretches.
func (g *Graph) EdgeCount() int { return g.m }

// Vertex returns the position of intersection id.
func (g *Graph) Vertex(id int) geo.Point { return g.pts[id] }

// Degree returns the number of roads meeting at intersection id.
func (g *Graph) Degree(id int) int { return len(g.adj[id]) }

// Neighbors returns the ids of intersections directly connected to id.
// The returned slice is freshly allocated.
func (g *Graph) Neighbors(id int) []int {
	out := make([]int, len(g.adj[id]))
	for i, e := range g.adj[id] {
		out[i] = e.to
	}
	return out
}

// Bounds returns the bounding box of all intersections.
// It panics on an empty graph.
func (g *Graph) Bounds() geo.Rect { return geo.Bounds(g.pts) }

// TotalRoadLength returns the summed length of all road stretches in metres.
func (g *Graph) TotalRoadLength() float64 {
	total := 0.0
	for a, es := range g.adj {
		for _, e := range es {
			if e.to > a { // count each undirected edge once
				total += e.w
			}
		}
	}
	return total
}

// RandomVertex returns a uniformly random intersection id.
// It panics on an empty graph.
func (g *Graph) RandomVertex(r *xrand.Rand) int {
	if len(g.pts) == 0 {
		panic("roadmap: RandomVertex on empty graph")
	}
	return r.IntN(len(g.pts))
}

// NearestVertex returns the intersection closest to p.
// It panics on an empty graph.
func (g *Graph) NearestVertex(p geo.Point) int {
	if len(g.pts) == 0 {
		panic("roadmap: NearestVertex on empty graph")
	}
	best, bestD := 0, math.Inf(1)
	for i, q := range g.pts {
		if d := p.Dist2(q); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// Connected reports whether every intersection is reachable from every
// other. The empty graph is connected.
func (g *Graph) Connected() bool {
	if len(g.pts) == 0 {
		return true
	}
	return len(g.component(0)) == len(g.pts)
}

// component returns the ids reachable from start (including start).
func (g *Graph) component(start int) []int {
	seen := make([]bool, len(g.pts))
	stack := []int{start}
	seen[start] = true
	var out []int
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, v)
		for _, e := range g.adj[v] {
			if !seen[e.to] {
				seen[e.to] = true
				stack = append(stack, e.to)
			}
		}
	}
	return out
}

// Validate checks structural invariants a usable scenario map must satisfy:
// at least two vertices, at least one edge, and full connectivity (otherwise
// some shortest-path movement targets would be unreachable). It returns a
// descriptive error for the first violated invariant. The result is
// memoized until the graph next changes.
func (g *Graph) Validate() error {
	g.ssspMu.Lock()
	defer g.ssspMu.Unlock()
	if !g.validated {
		g.validErr, g.validated = g.validate(), true
	}
	return g.validErr
}

func (g *Graph) validate() error {
	if len(g.pts) < 2 {
		return fmt.Errorf("roadmap: map has %d vertices, need at least 2", len(g.pts))
	}
	if g.m == 0 {
		return fmt.Errorf("roadmap: map has no edges")
	}
	if !g.Connected() {
		return fmt.Errorf("roadmap: map is not connected (%d of %d vertices in the first component)",
			len(g.component(0)), len(g.pts))
	}
	return nil
}

// Fingerprint returns a 64-bit content hash of the graph: vertex positions
// in id order and the undirected edge set. Graphs with identical content
// (same construction order) hash identically; mobility on the graph is a
// pure function of (fingerprint, stream seed), which is what the
// experiment harness's contact cache keys on.
func (g *Graph) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	word(uint64(len(g.pts)))
	for _, p := range g.pts {
		word(math.Float64bits(p.X))
		word(math.Float64bits(p.Y))
	}
	for a, es := range g.adj {
		for _, e := range es {
			if e.to > a {
				word(uint64(a))
				word(uint64(e.to))
			}
		}
	}
	return h.Sum64()
}
