package roadmap

import (
	"container/heap"
	"math"
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

type pq []pqItem

func (q pq) Len() int           { return len(q) }
func (q pq) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x any)        { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
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
	q := pq{{src, 0}}
	for q.Len() > 0 {
		it := heap.Pop(&q).(pqItem)
		if it.dist > t.dist[it.v] {
			continue // stale entry
		}
		for _, e := range g.adj[it.v] {
			nd := it.dist + e.w
			if nd < t.dist[e.to] {
				t.dist[e.to] = nd
				t.prev[e.to] = it.v
				heap.Push(&q, pqItem{e.to, nd})
			}
		}
	}
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
	if a < 0 || a >= len(g.pts) || b < 0 || b >= len(g.pts) {
		return nil, 0, false
	}
	t := g.shortestTree(a)
	if math.IsInf(t.dist[b], 1) {
		return nil, 0, false
	}
	// Walk predecessors back from b.
	rev := []int{b}
	for v := b; v != a; v = t.prev[v] {
		rev = append(rev, t.prev[v])
	}
	path = make([]int, len(rev))
	for i, v := range rev {
		path[len(rev)-1-i] = v
	}
	return path, t.dist[b], true
}

// Distance returns the shortest road distance from a to b in metres, or
// +Inf if unreachable.
func (g *Graph) Distance(a, b int) float64 {
	t := g.shortestTree(a)
	return t.dist[b]
}
