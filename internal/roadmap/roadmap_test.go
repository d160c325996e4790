package roadmap

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"vdtn/internal/geo"
	"vdtn/internal/xrand"
)

func TestAddVertexDedup(t *testing.T) {
	g := New()
	a := g.AddVertex(geo.Point{X: 1, Y: 2})
	b := g.AddVertex(geo.Point{X: 1.0000001, Y: 2}) // within snap tolerance
	c := g.AddVertex(geo.Point{X: 1.1, Y: 2})
	if a != b {
		t.Fatalf("vertices within snap tolerance not deduped: %d, %d", a, b)
	}
	if a == c {
		t.Fatal("distinct vertices merged")
	}
	if g.VertexCount() != 2 {
		t.Fatalf("VertexCount = %d, want 2", g.VertexCount())
	}
}

func TestAddEdgeBasics(t *testing.T) {
	g := New()
	a := g.AddVertex(geo.Point{X: 0, Y: 0})
	b := g.AddVertex(geo.Point{X: 3, Y: 4})
	g.AddEdge(a, b)
	g.AddEdge(a, b) // duplicate ignored
	g.AddEdge(b, a) // reverse duplicate ignored
	g.AddEdge(a, a) // self loop ignored
	if g.EdgeCount() != 1 {
		t.Fatalf("EdgeCount = %d, want 1", g.EdgeCount())
	}
	if g.Degree(a) != 1 || g.Degree(b) != 1 {
		t.Fatalf("degrees = %d, %d, want 1, 1", g.Degree(a), g.Degree(b))
	}
	if got := g.TotalRoadLength(); got != 5 {
		t.Fatalf("TotalRoadLength = %v, want 5", got)
	}
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	g := New()
	g.AddVertex(geo.Point{})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range AddEdge did not panic")
		}
	}()
	g.AddEdge(0, 5)
}

func TestGridStructure(t *testing.T) {
	g := Grid(3, 4, 100)
	if g.VertexCount() != 12 {
		t.Fatalf("VertexCount = %d, want 12", g.VertexCount())
	}
	// Edges: horizontal 3*(4-1)=9, vertical 4*(3-1)=8.
	if g.EdgeCount() != 17 {
		t.Fatalf("EdgeCount = %d, want 17", g.EdgeCount())
	}
	if !g.Connected() {
		t.Fatal("grid not connected")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	b := g.Bounds()
	if b.Width() != 300 || b.Height() != 200 {
		t.Fatalf("bounds = %v x %v", b.Width(), b.Height())
	}
}

func TestShortestPathOnGrid(t *testing.T) {
	g := Grid(3, 3, 100) // ids row-major: 0..8
	path, dist, ok := g.ShortestPath(0, 8)
	if !ok {
		t.Fatal("no path found on connected grid")
	}
	if math.Abs(dist-400) > 1e-9 {
		t.Fatalf("dist(corner, corner) = %v, want 400", dist)
	}
	if path[0] != 0 || path[len(path)-1] != 8 {
		t.Fatalf("path endpoints wrong: %v", path)
	}
	if len(path) != 5 {
		t.Fatalf("path length = %d hops, want 5 vertices", len(path))
	}
	// Consecutive path vertices must be adjacent (spacing apart).
	for i := 1; i < len(path); i++ {
		d := g.Vertex(path[i-1]).Dist(g.Vertex(path[i]))
		if math.Abs(d-100) > 1e-9 {
			t.Fatalf("path step %d has length %v", i, d)
		}
	}
}

func TestShortestPathSelf(t *testing.T) {
	g := Grid(2, 2, 50)
	path, dist, ok := g.ShortestPath(1, 1)
	if !ok || dist != 0 || len(path) != 1 || path[0] != 1 {
		t.Fatalf("self path = %v, %v, %v", path, dist, ok)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := New()
	a := g.AddVertex(geo.Point{X: 0, Y: 0})
	b := g.AddVertex(geo.Point{X: 10, Y: 0})
	c := g.AddVertex(geo.Point{X: 20, Y: 0})
	g.AddEdge(a, b)
	if _, _, ok := g.ShortestPath(a, c); ok {
		t.Fatal("found path to disconnected vertex")
	}
	if !math.IsInf(g.Distance(a, c), 1) {
		t.Fatal("Distance to unreachable not +Inf")
	}
	if g.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted disconnected map")
	}
}

func TestShortestPathOutOfRange(t *testing.T) {
	g := Grid(2, 2, 10)
	if _, _, ok := g.ShortestPath(-1, 0); ok {
		t.Fatal("negative id accepted")
	}
	if _, _, ok := g.ShortestPath(0, 99); ok {
		t.Fatal("oversized id accepted")
	}
}

// Property: on a connected random graph, shortest-path distances satisfy
// symmetry and the triangle inequality, and every reported path is valid.
func TestShortestPathProperties(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rng := xrand.New(seed)
		g := Grid(3+rng.IntN(3), 3+rng.IntN(3), 50+rng.Float64()*100)
		n := g.VertexCount()
		a, b, c := rng.IntN(n), rng.IntN(n), rng.IntN(n)

		dab := g.Distance(a, b)
		dba := g.Distance(b, a)
		if math.Abs(dab-dba) > 1e-6 {
			return false
		}
		if g.Distance(a, c) > dab+g.Distance(b, c)+1e-6 {
			return false
		}
		path, dist, ok := g.ShortestPath(a, b)
		if !ok {
			return false
		}
		// Path length must equal the reported distance.
		sum := 0.0
		for i := 1; i < len(path); i++ {
			sum += g.Vertex(path[i-1]).Dist(g.Vertex(path[i]))
		}
		return math.Abs(sum-dist) < 1e-6
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceCacheInvalidation(t *testing.T) {
	g := New()
	a := g.AddVertex(geo.Point{X: 0, Y: 0})
	b := g.AddVertex(geo.Point{X: 100, Y: 0})
	c := g.AddVertex(geo.Point{X: 50, Y: 40})
	g.AddEdge(a, c)
	g.AddEdge(c, b)
	detour := g.Distance(a, b)
	if detour <= 100 {
		t.Fatalf("detour distance = %v, expected > 100", detour)
	}
	g.AddEdge(a, b) // direct road appears
	if d := g.Distance(a, b); math.Abs(d-100) > 1e-9 {
		t.Fatalf("Distance after AddEdge = %v, want 100 (stale cache?)", d)
	}
}

func TestNearestVertex(t *testing.T) {
	g := Grid(3, 3, 100)
	id := g.NearestVertex(geo.Point{X: 110, Y: 95})
	if g.Vertex(id) != (geo.Point{X: 100, Y: 100}) {
		t.Fatalf("NearestVertex -> %v", g.Vertex(id))
	}
}

func TestRandomVertexInRange(t *testing.T) {
	g := Grid(4, 4, 10)
	rng := xrand.New(5)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := g.RandomVertex(rng)
		if v < 0 || v >= g.VertexCount() {
			t.Fatalf("RandomVertex out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != g.VertexCount() {
		t.Fatalf("RandomVertex covered %d/%d vertices in 1000 draws", len(seen), g.VertexCount())
	}
}

func TestHelsinkiLikeProperties(t *testing.T) {
	g := HelsinkiLike()
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	b := g.Bounds()
	if math.Abs(b.Width()-4500) > 1 || math.Abs(b.Height()-3400) > 1 {
		t.Fatalf("map extent %v x %v, want ~4500 x 3400 (ONE Helsinki clip)", b.Width(), b.Height())
	}
	if n := g.VertexCount(); n < 120 || n > 200 {
		t.Fatalf("map has %d intersections, want city-block density (120-200)", n)
	}
	// Deterministic: two constructions must be identical.
	h := HelsinkiLike()
	if h.VertexCount() != g.VertexCount() || h.EdgeCount() != g.EdgeCount() {
		t.Fatal("HelsinkiLike not deterministic")
	}
	for i := 0; i < g.VertexCount(); i++ {
		if g.Vertex(i) != h.Vertex(i) {
			t.Fatalf("vertex %d differs across constructions", i)
		}
	}
}

func TestRelaySites(t *testing.T) {
	g := HelsinkiLike()
	sites := RelaySites(g, 5)
	if len(sites) != 5 {
		t.Fatalf("RelaySites returned %d sites", len(sites))
	}
	seen := map[int]bool{}
	for _, s := range sites {
		if seen[s] {
			t.Fatal("duplicate relay site")
		}
		seen[s] = true
		if g.Degree(s) < 3 {
			t.Fatalf("relay site %d has degree %d, want crossroad (>=3)", s, g.Degree(s))
		}
	}
	// Spread: the minimum pairwise road distance should be a meaningful
	// fraction of the map diagonal.
	minD := math.Inf(1)
	for i, a := range sites {
		for _, b := range sites[i+1:] {
			if d := g.Distance(a, b); d < minD {
				minD = d
			}
		}
	}
	if minD < 800 {
		t.Fatalf("relay sites bunch up: min pairwise road distance %v m", minD)
	}
	// Deterministic.
	again := RelaySites(g, 5)
	for i := range sites {
		if sites[i] != again[i] {
			t.Fatal("RelaySites not deterministic")
		}
	}
}

func TestRelaySitesTooMany(t *testing.T) {
	g := Grid(2, 2, 10) // no degree-3 vertices
	defer func() {
		if recover() == nil {
			t.Fatal("RelaySites on cornerless map did not panic")
		}
	}()
	RelaySites(g, 1)
}

func TestGridPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"rows<2":    func() { Grid(1, 5, 10) },
		"cols<2":    func() { Grid(5, 1, 10) },
		"spacing=0": func() { Grid(3, 3, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestParseWKTLinestring(t *testing.T) {
	g, err := ParseWKT("LINESTRING (0 0, 100 0, 100 100)\nLINESTRING (100 100, 0 100)\n")
	if err != nil {
		t.Fatal(err)
	}
	if g.VertexCount() != 4 {
		t.Fatalf("VertexCount = %d, want 4 (shared junction deduped)", g.VertexCount())
	}
	if g.EdgeCount() != 3 {
		t.Fatalf("EdgeCount = %d, want 3", g.EdgeCount())
	}
}

func TestParseWKTMultilinestring(t *testing.T) {
	g, err := ParseWKT("MULTILINESTRING ((0 0, 10 0), (10 0, 10 10, 20 10))\n")
	if err != nil {
		t.Fatal(err)
	}
	if g.VertexCount() != 4 || g.EdgeCount() != 3 {
		t.Fatalf("got %d vertices, %d edges", g.VertexCount(), g.EdgeCount())
	}
}

func TestParseWKTCommentsAndBlanks(t *testing.T) {
	g, err := ParseWKT("# a comment\n\nLINESTRING (0 0, 5 5)\n")
	if err != nil {
		t.Fatal(err)
	}
	if g.EdgeCount() != 1 {
		t.Fatalf("EdgeCount = %d", g.EdgeCount())
	}
}

func TestParseWKTErrors(t *testing.T) {
	cases := map[string]string{
		"unsupported geometry": "POINT (1 2)",
		"missing parens":       "LINESTRING 0 0, 1 1",
		"single point":         "LINESTRING (1 2)",
		"bad coordinate":       "LINESTRING (a b, 1 2)",
		"empty input":          "",
		"only comments":        "# nothing here",
	}
	for name, input := range cases {
		if _, err := ParseWKT(input); err == nil {
			t.Errorf("%s: ParseWKT accepted %q", name, input)
		}
	}
}

func TestWKTRoundTrip(t *testing.T) {
	g := HelsinkiLike()
	text := ExportWKT(g)
	if !strings.Contains(text, "LINESTRING") {
		t.Fatal("export contains no linestrings")
	}
	h, err := ParseWKT(text)
	if err != nil {
		t.Fatalf("re-parse failed: %v", err)
	}
	if h.VertexCount() != g.VertexCount() {
		t.Fatalf("round trip vertices: %d != %d", h.VertexCount(), g.VertexCount())
	}
	if h.EdgeCount() != g.EdgeCount() {
		t.Fatalf("round trip edges: %d != %d", h.EdgeCount(), g.EdgeCount())
	}
	if math.Abs(h.TotalRoadLength()-g.TotalRoadLength()) > 1.0 {
		t.Fatalf("round trip road length: %v != %v", h.TotalRoadLength(), g.TotalRoadLength())
	}
}

func TestAppendRoute(t *testing.T) {
	g := Grid(2, 3, 100)
	path, dist, ok := g.ShortestPath(0, 5)
	if !ok {
		t.Fatal("no path")
	}
	head := geo.Polyline{{X: -1, Y: -1}}
	pl, d, ok := g.AppendRoute(head, 0, 5)
	if !ok || d != dist || len(pl) != 1+len(path) || pl[0] != head[0] {
		t.Fatalf("AppendRoute = %v %v %v, want %v then path %v of length %v", pl, d, ok, head, path, dist)
	}
	for i, v := range path {
		if pl[1+i] != g.Vertex(v) {
			t.Fatalf("route point %d = %v, want vertex %d at %v", i, pl[1+i], v, g.Vertex(v))
		}
	}
	if math.Abs(pl[1:].Length()-dist) > 1e-9 {
		t.Fatalf("polyline length %v != path dist %v", pl[1:].Length(), dist)
	}
	// Refilling the same storage allocates nothing.
	if allocs := testing.AllocsPerRun(10, func() { pl, _, _ = g.AppendRoute(pl[:0], 5, 0) }); allocs != 0 {
		t.Fatalf("refilling a route allocated %v times", allocs)
	}
	if back, _, ok := g.AppendRoute(head, 0, 99); ok || len(back) != 1 {
		t.Fatalf("out-of-range AppendRoute = %v, %v; want dst unchanged and false", back, ok)
	}
}

func BenchmarkShortestPathColdCache(b *testing.B) {
	g := HelsinkiLike()
	rng := xrand.New(1)
	n := g.VertexCount()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.invalidate()
		g.ShortestPath(rng.IntN(n), rng.IntN(n))
	}
}

func BenchmarkShortestPathWarmCache(b *testing.B) {
	g := HelsinkiLike()
	rng := xrand.New(1)
	n := g.VertexCount()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ShortestPath(rng.IntN(n), rng.IntN(n))
	}
}
