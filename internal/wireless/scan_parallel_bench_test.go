package wireless

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"vdtn/internal/event"
	"vdtn/internal/geo"
)

// benchMediumWorkers is benchMedium with a scan-worker pool configured.
func benchMediumWorkers(n, workers int) (*event.Scheduler, *Medium) {
	s := event.NewScheduler()
	cfg := testCfg()
	cfg.ScanWorkers = workers
	m := NewMedium(s, cfg)
	m.SetHandler(&recorder{})
	seedFleet(m, n)
	return s, m
}

// BenchmarkScanParallel measures one steady-state tick of the sharded
// scan across the worker scaling curve. workers=1 is the serial path the
// speedups are measured against.
func BenchmarkScanParallel(b *testing.B) {
	for _, n := range benchSizes {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(b *testing.B) {
				skipLargeInShort(b, n)
				_, m := benchMediumWorkers(n, workers)
				defer m.Stop()
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
}

// TestScanScalingArtifact runs the parallel scan scaling measurement and
// enforces its gates (see scanScalingArtifact). It never writes the
// artifact; BenchmarkScanScalingArtifact does.
func TestScanScalingArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement")
	}
	scanScalingArtifact(t)
}

// BenchmarkScanScalingArtifact regenerates BENCH_parallel.json at the repo
// root. Plain `go test ./...` runs no benchmarks, so the tracked file
// changes only when asked for:
//
//	go test ./internal/wireless -run '^$' -bench ScanScalingArtifact -benchtime 1x
func BenchmarkScanScalingArtifact(b *testing.B) {
	writeBenchArtifact(b, "../../BENCH_parallel.json", scanScalingArtifact(b))
}

// scanScalingArtifact measures the parallel scan's worker scaling curve
// at 10k and 100k nodes and returns it. The speedup thresholds from the PR's acceptance criteria —
// >=2x serial with 4 workers, >=3x with 8 — are enforced only when the
// host has at least that many cores (the CI bench runner does; a laptop
// or a 1-core container still measures and records the curve, it just
// cannot honestly fail a parallelism target it physically cannot reach).
// The core count is recorded in the artifact so any reader can tell which
// gates were live.
func scanScalingArtifact(tb testing.TB) map[string]any {
	if raceEnabled {
		tb.Skip("timing measurement meaningless under the race detector")
	}
	cores := runtime.NumCPU()
	art := map[string]any{
		"benchmark":  "parallel tick pipeline: sharded scan vs serial incremental scan",
		"mover_frac": benchMoverFrac,
		"cores":      cores,
		"gomaxprocs": runtime.GOMAXPROCS(0),
	}

	tickAvg := func(m *Medium, ticks int) float64 {
		now := 0.0
		m.scan(now)
		for i := 0; i < 3; i++ { // warm shards and pool
			now++
			m.scan(now)
		}
		start := time.Now()
		for i := 0; i < ticks; i++ {
			now++
			m.scan(now)
		}
		return float64(time.Since(start).Nanoseconds()) / float64(ticks)
	}

	workerCurve := []int{1, 2, 4, 8}
	speedup := map[int]map[int]float64{} // n -> workers -> x vs serial
	for _, bench := range []struct {
		n     int
		tag   string
		ticks int
	}{{10000, "10k", 24}, {100000, "100k", 6}} {
		speedup[bench.n] = map[int]float64{}
		var serialNs float64
		for _, workers := range workerCurve {
			_, m := benchMediumWorkers(bench.n, workers)
			ns := tickAvg(m, bench.ticks)
			m.Stop()
			runtime.GC()
			if workers == 1 {
				serialNs = ns
			}
			su := serialNs / ns
			speedup[bench.n][workers] = su
			art[fmt.Sprintf("scan_ns_per_tick_%s_workers_%d", bench.tag, workers)] = int64(ns)
			art[fmt.Sprintf("speedup_vs_serial_%s_workers_%d", bench.tag, workers)] = su
		}
	}

	// Zero-allocation acceptance criterion on the parallel path: the
	// quiet-tick lattice fleet from TestScanSpeedupArtifact, scanned with
	// a 4-worker pool.
	s := event.NewScheduler()
	cfg := testCfg()
	cfg.ScanWorkers = 4
	m := NewMedium(s, cfg)
	m.SetHandler(&recorder{})
	id := 0
	for gx := 0; gx < 100; gx++ {
		for gy := 0; gy < 100; gy++ {
			p := geo.Point{X: float64(gx) * 20, Y: float64(gy) * 20}
			if id%3 == 0 {
				ph := float64(id) * 0.1
				m.Add(&scripted{id: id, fn: func(now float64) geo.Point {
					return geo.Point{X: p.X + 0.5*math.Sin(now+ph), Y: p.Y}
				}})
			} else {
				m.Add(&parked{id: id, at: p})
			}
			id++
		}
	}
	defer m.Stop()
	now := 0.0
	for i := 0; i < 8; i++ {
		m.scan(now)
		now++
	}
	scanAllocs := testing.AllocsPerRun(20, func() {
		m.scan(now)
		now++
	})
	art["parallel_scan_allocs_per_quiet_tick"] = scanAllocs
	if scanAllocs != 0 {
		tb.Errorf("steady-state parallel scan allocates %v per tick, want 0", scanAllocs)
	}

	// Threshold gates, live only where the hardware can express them.
	if cores >= 4 {
		if su := speedup[100000][4]; su < 2 {
			tb.Errorf("100k nodes / 4 workers: %.2fx vs serial, want >=2x", su)
		}
	} else {
		tb.Logf("4-worker speedup gate skipped: %d cores", cores)
	}
	if cores >= 8 {
		if su := speedup[100000][8]; su < 3 {
			tb.Errorf("100k nodes / 8 workers: %.2fx vs serial, want >=3x", su)
		}
	} else {
		tb.Logf("8-worker speedup gate skipped: %d cores", cores)
	}

	return art
}
