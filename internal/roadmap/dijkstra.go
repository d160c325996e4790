package roadmap

import (
	"math"
	"slices"

	"vdtn/internal/geo"
)

// ssspTree is a single-source shortest-path tree: for a fixed source, the
// distance to every vertex and the predecessor on one shortest path.
// Trees are cached per source because mobility models re-query the same
// sources often (every departure from a popular intersection).
type ssspTree struct {
	dist []float64
	prev []int
}

// pqItem is an entry in the Dijkstra priority queue.
type pqItem struct {
	v    int
	dist float64
}

// pq is a binary min-heap on dist. push and pop take container/heap's
// exact sift steps, so entries leave in the order they would from
// container/heap — the order that breaks ties in a tree's prev — without
// boxing each item in an interface.
type pq []pqItem

func (q *pq) push(it pqItem) {
	*q = append(*q, it)
	h := *q
	for j := len(h) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (q *pq) pop() pqItem {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].dist < h[j].dist {
			j = j2
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*q = h[:n]
	return h[n]
}

// shortestTree returns the (possibly cached) shortest-path tree from src.
// Safe for concurrent use: the cache lock is held across lookup, build and
// store, so concurrent queries for the same source compute the tree once
// and every caller observes the same (immutable) tree. Holding the lock
// through the Dijkstra build serializes tree construction, which is fine:
// cache misses are rare at steady state (sources repeat), and correctness
// across concurrent runs sharing one graph matters more than first-touch
// latency.
func (g *Graph) shortestTree(src int) *ssspTree {
	g.ssspMu.Lock()
	defer g.ssspMu.Unlock()
	if t, ok := g.sssp[src]; ok {
		return t
	}
	n := len(g.pts)
	t := &ssspTree{
		dist: make([]float64, n),
		prev: make([]int, n),
	}
	for i := range t.dist {
		t.dist[i] = math.Inf(1)
		t.prev[i] = -1
	}
	t.dist[src] = 0
	q := append(g.queue[:0], pqItem{src, 0})
	for len(q) > 0 {
		it := q.pop()
		if it.dist > t.dist[it.v] {
			continue // stale entry
		}
		for _, e := range g.adj[it.v] {
			nd := it.dist + e.w
			if nd < t.dist[e.to] {
				t.dist[e.to] = nd
				t.prev[e.to] = it.v
				q.push(pqItem{e.to, nd})
			}
		}
	}
	g.queue = q
	if g.sssp == nil {
		g.sssp = make(map[int]*ssspTree)
	}
	g.sssp[src] = t
	return t
}

// ShortestPath returns the vertex-id sequence of a shortest path from a to
// b (inclusive of both endpoints), its length in metres, and whether b is
// reachable from a. The path from a vertex to itself is [a] with length 0.
// Results are deterministic: ties are broken by edge insertion order.
func (g *Graph) ShortestPath(a, b int) (path []int, dist float64, ok bool) {
	t, n := g.pathTo(a, b)
	if n == 0 {
		return nil, 0, false
	}
	path = make([]int, n)
	for v := b; n > 0; v = t.prev[v] {
		n--
		path[n] = v
	}
	return path, t.dist[b], true
}

// AppendRoute appends the vertex positions of ShortestPath(a, b) to dst
// and returns the extended polyline, the path's length, and whether b is
// reachable from a. Passing a reused dst[:0] fills it in place.
func (g *Graph) AppendRoute(dst geo.Polyline, a, b int) (geo.Polyline, float64, bool) {
	t, n := g.pathTo(a, b)
	if n == 0 {
		return dst, 0, false
	}
	k := len(dst)
	dst = slices.Grow(dst, n)[:k+n]
	for v := b; n > 0; v = t.prev[v] {
		n--
		dst[k+n] = g.pts[v]
	}
	return dst, t.dist[b], true
}

// pathTo returns the shortest-path tree from a and the number of vertices
// on its path to b, or 0 when either id is out of range or b is
// unreachable.
func (g *Graph) pathTo(a, b int) (*ssspTree, int) {
	if a < 0 || a >= len(g.pts) || b < 0 || b >= len(g.pts) {
		return nil, 0
	}
	t := g.shortestTree(a)
	if math.IsInf(t.dist[b], 1) {
		return nil, 0
	}
	n := 1
	for v := b; v != a; v = t.prev[v] {
		n++
	}
	return t, n
}

// Distance returns the shortest road distance from a to b in metres, or
// +Inf if unreachable.
func (g *Graph) Distance(a, b int) float64 {
	t := g.shortestTree(a)
	return t.dist[b]
}
