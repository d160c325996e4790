package wireless

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"vdtn/internal/event"
	"vdtn/internal/geo"
	"vdtn/internal/xrand"
)

// benchMoverFrac is the fraction of entities in motion at any instant in
// the scan benchmarks. The paper's walkers pause 5-15 minutes between
// trips of a few minutes, so well under half the fleet moves at once.
const benchMoverFrac = 0.3

// parked is a benchmark entity that never moves. It carries the static
// hint, like the scenario's stationary relays and paused walkers do, so
// the scan benchmarks exercise the static-skip path.
type parked struct {
	at geo.Point
}

func (p *parked) Position(float64) geo.Point  { return p.at }
func (p *parked) StaticUntil(float64) float64 { return math.Inf(1) }
func (p *parked) MaxSpeed() float64           { return 0 }

// drifter oscillates around a home point, staying inside its neighbourhood
// so the scenario's contact density is stable over any benchmark horizon.
type drifter struct {
	home geo.Point
	amp  float64
	ph   float64
}

func (d *drifter) Position(now float64) geo.Point {
	// Triangle wave: cheap, deterministic, bounded.
	t := math.Mod(now*0.05+d.ph, 2)
	if t > 1 {
		t = 2 - t
	}
	return geo.Point{X: d.home.X + d.amp*(2*t-1), Y: d.home.Y}
}

// benchFleet returns the benchmark fleet: n entities at roughly constant
// contact density (mean degree ~6), benchMoverFrac of them moving.
// Deterministic in n, so media built with different configs host
// identical fleets.
func benchFleet(n int) []Entity {
	rng := xrand.New(uint64(n))
	side := math.Sqrt(float64(n) / 0.0025) // ~7 neighbours in a 30 m disk
	ents := make([]Entity, n)
	for i := range ents {
		p := geo.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
		if float64(i%100) < benchMoverFrac*100 {
			ents[i] = &drifter{home: p, amp: 60, ph: rng.Float64() * 2}
		} else {
			ents[i] = &parked{at: p}
		}
	}
	return ents
}

// benchMedium builds a serial-scan medium over the benchmark fleet.
func benchMedium(n int) (*event.Scheduler, *Medium) {
	s := event.NewScheduler()
	return s, scanning(s, &recorder{}, benchFleet(n)...)
}

var benchSizes = []int{1000, 10000, 100000}

func skipLargeInShort(b *testing.B, n int) {
	if testing.Short() && n > 10000 {
		b.Skipf("n=%d skipped in short mode", n)
	}
}

// BenchmarkScan measures one tick of the incremental live scan at steady
// state: static entities skipped, movers re-linked in the persistent grid
// and diffed against the adjacency lists.
func BenchmarkScan(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			skipLargeInShort(b, n)
			_, m := benchMedium(n)
			now := 0.0
			m.scan(now)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now++
				m.scan(now)
			}
		})
	}
}

// BenchmarkScanReference measures the pre-refactor full-rescan path on the
// same fleet — every position re-queried, grid and pair set rebuilt from
// scratch each tick — kept in-tree as the before leg of the comparison.
func BenchmarkScanReference(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			skipLargeInShort(b, n)
			_, m := benchMedium(n)
			m.scan(0)
			now := 0.0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now++
				m.scanReference(now)
			}
		})
	}
}

// BenchmarkPeersOf measures the per-call cost of the neighbour query the
// routers issue on every pump: now a cached-slice return, O(degree).
func BenchmarkPeersOf(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			skipLargeInShort(b, n)
			_, m := benchMedium(n)
			m.scan(0)
			b.ReportAllocs()
			b.ResetTimer()
			sum := 0
			for i := 0; i < b.N; i++ {
				sum += len(m.PeersOf(i % n))
			}
			_ = sum
		})
	}
}

// benchReplayRecording builds a synthetic n-node trace: every adjacent pair
// cycles through two contact windows over a 60-tick horizon.
func benchReplayRecording(n int) *Recording {
	rec := &Recording{ScanInterval: 1, Duration: 70}
	for t := 1; t <= 60; t++ {
		up := (t/10)%2 == 1
		for p := t % 10; p < n/2; p += 10 {
			rec.Transitions = append(rec.Transitions,
				Transition{Time: float64(t), A: 2 * p, B: 2*p + 1, Up: up})
		}
	}
	return rec
}

// BenchmarkReplay measures a full replay-driven run (70 ticks, ~3n
// transitions), the adjacency cache maintained throughout.
func BenchmarkReplay(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			skipLargeInShort(b, n)
			v := viewOf(b, benchReplayRecording(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s := event.NewScheduler()
				m := NewMedium(s, testCfg(), n)
				m.SetHandler(&recorder{})
				b.StartTimer()
				m.StartReplay(0, v)
				s.RunUntil(70)
			}
		})
	}
}

// preRefactorBaseline holds the scan-path numbers measured immediately
// before this refactor (commit 2b929e1, Intel Xeon @ 2.10GHz, go1.24):
// the old Medium.scan / PeersOf driven by the same benchMedium fleets.
// They are recorded in the artifact as the historical before column; the
// machine-independent comparison the artifact asserts on is the in-tree
// scanReference path measured side by side with the new scan.
var preRefactorBaseline = map[string]float64{
	"scan_ns_per_tick_1k":       1285679,
	"scan_ns_per_tick_10k":      20904437,
	"scan_ns_per_tick_100k":     532172162,
	"scan_allocs_per_tick_1k":   957,
	"scan_allocs_per_tick_10k":  9353,
	"scan_allocs_per_tick_100k": 92324,
	"peersof_ns_per_call_1k":    27157,
	"peersof_ns_per_call_10k":   448223,
	"peersof_ns_per_call_100k":  3442994,
	"peersof_allocs_per_call":   3,
}

// TestScanSpeedupArtifact runs the scan speedup measurement and enforces
// its acceptance criteria (see scanSpeedupArtifact). It never writes the
// artifact; BenchmarkScanSpeedupArtifact does.
func TestScanSpeedupArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement")
	}
	scanSpeedupArtifact(t)
}

// BenchmarkScanSpeedupArtifact regenerates BENCH_scan.json at the repo
// root. Plain `go test ./...` runs no benchmarks, so the tracked file
// changes only when asked for:
//
//	go test ./internal/wireless -run '^$' -bench ScanSpeedupArtifact -benchtime 1x
func BenchmarkScanSpeedupArtifact(b *testing.B) {
	// The benchmark runs with the package directory as cwd; the artifact
	// belongs at the repo root next to BENCH_contactcache.json.
	writeBenchArtifact(b, "../../BENCH_scan.json", scanSpeedupArtifact(b))
}

// writeBenchArtifact writes art as indented JSON to path.
func writeBenchArtifact(tb testing.TB, path string, art map[string]any) {
	tb.Helper()
	out, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		tb.Fatal(err)
	}
}

// artifactRuns is how many times scanSpeedupArtifact measures each fleet
// size; the artifact records the min, median and max of the runs.
const artifactRuns = 3

// spread summarizes repeated measurements as their min, median and max.
func spread[T int64 | float64](runs []T) map[string]T {
	s := slices.Clone(runs)
	slices.Sort(s)
	return map[string]T{"min": s[0], "median": s[len(s)/2], "max": s[len(s)-1]}
}

// hostBlock describes the machine and source an artifact was measured on.
func hostBlock() map[string]any {
	commit := "unknown"
	if out, err := exec.Command("git", "describe", "--always", "--dirty").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
	}
}

// scanSpeedupArtifact measures the incremental scan against the retained
// full-rescan reference at 1k/10k/100k nodes, artifactRuns times each,
// and returns the comparison with the host it ran on, alongside the pinned
// pre-refactor numbers. It fails tb unless:
//
//   - the incremental scan beats the full rescan >=5x at 100k nodes, in
//     the median of the runs;
//   - PeersOf performs zero allocations per call (it no longer walks the
//     global contact map);
//   - a steady-state scan tick with no transitions performs zero
//     allocations.
func scanSpeedupArtifact(tb testing.TB) map[string]any {
	if raceEnabled {
		tb.Skip("timing measurement meaningless under the race detector")
	}
	art := map[string]any{
		"benchmark":  "live-scan hot path: incremental adjacency scan vs full rescan",
		"mover_frac": benchMoverFrac,
		"host":       hostBlock(),
		"runs":       artifactRuns,
	}
	for k, v := range preRefactorBaseline {
		art["before_"+k] = v
	}

	tickAvg := func(ticks int, f func(now float64)) int64 {
		start := time.Now()
		for i := 1; i <= ticks; i++ {
			f(float64(i))
		}
		return time.Since(start).Nanoseconds() / int64(ticks)
	}

	var speedup100k float64
	for _, bench := range []struct {
		n     int
		tag   string
		ticks int
	}{{1000, "1k", 40}, {10000, "10k", 12}, {100000, "100k", 4}} {
		var m *Medium
		var refNs, newNs []int64
		var su []float64
		for range artifactRuns {
			_, m = benchMedium(bench.n)
			m.scan(0)
			refNs = append(refNs, tickAvg(bench.ticks, func(now float64) { m.scanReference(now) }))

			// Fresh medium for the incremental leg so mobility time
			// queries stay non-decreasing from a clean slate. Collect the
			// reference leg's garbage first: the incremental scan
			// allocates almost nothing itself, so without this its
			// measurement pays the GC bill the full rescans ran up.
			_, m = benchMedium(bench.n)
			m.scan(0)
			runtime.GC()
			newNs = append(newNs, tickAvg(bench.ticks*4, func(now float64) { m.scan(now) }))
			su = append(su, float64(refNs[len(refNs)-1])/float64(newNs[len(newNs)-1]))
		}
		art["reference_ns_per_tick_"+bench.tag] = spread(refNs)
		art["after_scan_ns_per_tick_"+bench.tag] = spread(newNs)
		art["speedup_vs_reference_"+bench.tag] = spread(su)
		if bench.n == 100000 {
			speedup100k = spread(su)["median"]
		}

		// PeersOf timing + the zero-alloc acceptance criterion.
		calls := 100000
		start := time.Now()
		sum := 0
		for i := 0; i < calls; i++ {
			sum += len(m.PeersOf(i % bench.n))
		}
		art["after_peersof_ns_per_call_"+bench.tag] =
			time.Since(start).Nanoseconds() / int64(calls)
		if sum == 0 {
			tb.Fatalf("n=%d: no contacts in benchmark fleet", bench.n)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			m.PeersOf(7)
		}); allocs != 0 {
			tb.Fatalf("n=%d: PeersOf allocates %v per call, want 0", bench.n, allocs)
		}
	}
	art["after_peersof_allocs_per_call"] = 0

	// Steady-state scan allocations: a quiet tick must not allocate. The
	// benchMedium fleets transition every tick (that's the point of the
	// scan benchmarks), so this check uses a fleet constructed never to
	// transition: a 20 m lattice (orthogonal pairs at 20 m, diagonals at
	// ~28.3 m, next ring >= 39 m) whose movers oscillate +-0.5 m — every
	// pair distance stays strictly on its side of the 30 m threshold.
	var lattice []Entity
	for gx := 0; gx < 100; gx++ {
		for gy := 0; gy < 100; gy++ {
			p := geo.Point{X: float64(gx) * 20, Y: float64(gy) * 20}
			if id := len(lattice); id%3 == 0 {
				ph := float64(id) * 0.1
				lattice = append(lattice, &scripted{fn: func(now float64) geo.Point {
					return geo.Point{X: p.X + 0.5*math.Sin(now+ph), Y: p.Y}
				}})
			} else {
				lattice = append(lattice, &parked{at: p})
			}
		}
	}
	m := scanning(event.NewScheduler(), &recorder{}, lattice...)
	now := 0.0
	for i := 0; i < 8; i++ {
		m.scan(now)
		now++
	}
	scanAllocs := testing.AllocsPerRun(20, func() {
		m.scan(now)
		now++
	})
	art["after_scan_allocs_per_quiet_tick"] = scanAllocs
	if scanAllocs != 0 {
		tb.Fatalf("steady-state scan allocates %v per tick, want 0", scanAllocs)
	}

	if speedup100k < 5 {
		tb.Fatalf("scan speedup vs full rescan at 100k nodes = %.2fx, want >=5x", speedup100k)
	}
	return art
}
