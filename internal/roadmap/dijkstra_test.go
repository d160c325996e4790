package roadmap

import (
	"container/heap"
	"math"
	"slices"
	"testing"

	"vdtn/internal/geo"
	"vdtn/internal/xrand"
)

// refQueue is the container/heap queue shortestTree used before its
// typed heap; referenceTree runs Dijkstra on it.
type refQueue []pqItem

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(pqItem)) }
func (q *refQueue) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

func referenceTree(g *Graph, src int) *ssspTree {
	n := len(g.pts)
	t := &ssspTree{dist: make([]float64, n), prev: make([]int, n)}
	for i := range t.dist {
		t.dist[i], t.prev[i] = math.Inf(1), -1
	}
	t.dist[src] = 0
	q := refQueue{{src, 0}}
	for q.Len() > 0 {
		it := heap.Pop(&q).(pqItem)
		if it.dist > t.dist[it.v] {
			continue
		}
		for _, e := range g.adj[it.v] {
			if nd := it.dist + e.w; nd < t.dist[e.to] {
				t.dist[e.to], t.prev[e.to] = nd, it.v
				heap.Push(&q, pqItem{e.to, nd})
			}
		}
	}
	return t
}

// tiedGraph returns a random graph on a small integer lattice: its edge
// lengths repeat (1, 2, √2, √5, ...) and collinear detours tie with
// direct roads, so shortest paths tie often and only the heap's pop
// order decides prev. It need not be connected.
func tiedGraph(r *xrand.Rand) *Graph {
	g := New()
	for n := 4 + r.IntN(30); n > 0; n-- {
		g.AddVertex(geo.Point{X: float64(r.IntN(6)), Y: float64(r.IntN(6))})
	}
	for m := r.IntN(4 * g.VertexCount()); m > 0; m-- {
		g.AddEdge(r.IntN(g.VertexCount()), r.IntN(g.VertexCount()))
	}
	return g
}

// TestShortestTreeMatchesContainerHeap checks the typed heap against
// container/heap on random graphs with tied weights: every source's tree
// (distances and predecessors) and every ShortestPath must be the same.
func TestShortestTreeMatchesContainerHeap(t *testing.T) {
	r := xrand.New(5)
	for trial := 0; trial < 300; trial++ {
		g := tiedGraph(r)
		n := g.VertexCount()
		for src := 0; src < n; src++ {
			got, want := g.shortestTree(src), referenceTree(g, src)
			if !slices.Equal(got.dist, want.dist) || !slices.Equal(got.prev, want.prev) {
				t.Fatalf("trial %d src %d: tree\n dist %v\n prev %v\nwant\n dist %v\n prev %v",
					trial, src, got.dist, got.prev, want.dist, want.prev)
			}
			for dst := 0; dst < n; dst++ {
				path, dist, ok := g.ShortestPath(src, dst)
				if ok != !math.IsInf(want.dist[dst], 1) {
					t.Fatalf("trial %d: ShortestPath(%d, %d) ok = %v", trial, src, dst, ok)
				}
				if !ok {
					continue
				}
				var rev []int
				for v := dst; v != src; v = want.prev[v] {
					rev = append(rev, v)
				}
				rev = append(rev, src)
				slices.Reverse(rev)
				if !slices.Equal(path, rev) || dist != want.dist[dst] {
					t.Fatalf("trial %d: ShortestPath(%d, %d) = %v %v, want %v %v",
						trial, src, dst, path, dist, rev, want.dist[dst])
				}
			}
		}
	}
}

// TestValidateMemoClearedByMutation: Validate's memoized verdict must
// follow the graph through AddVertex and AddEdge.
func TestValidateMemoClearedByMutation(t *testing.T) {
	g := New()
	a := g.AddVertex(geo.Point{X: 0, Y: 0})
	b := g.AddVertex(geo.Point{X: 1, Y: 0})
	if g.Validate() == nil {
		t.Fatal("edgeless map accepted")
	}
	g.AddEdge(a, b)
	if err := g.Validate(); err != nil {
		t.Fatalf("connected map rejected: %v", err)
	}
	c := g.AddVertex(geo.Point{X: 2, Y: 0})
	if g.Validate() == nil {
		t.Fatal("map with an isolated vertex accepted")
	}
	g.AddEdge(b, c)
	if err := g.Validate(); err != nil {
		t.Fatalf("reconnected map rejected: %v", err)
	}
}
