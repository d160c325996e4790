package vdtn_test

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vdtn"
)

// TestContactCacheSpeedupArtifact runs the contact-cache measurement and
// enforces the properties the cache promises (see contactCacheArtifact).
// It never writes the artifact; BenchmarkContactCacheSpeedupArtifact does.
func TestContactCacheSpeedupArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement")
	}
	contactCacheArtifact(t)
}

// BenchmarkContactCacheSpeedupArtifact regenerates BENCH_contactcache.json
// at the repo root. Plain `go test ./...` runs no benchmarks, so the
// tracked file changes only when asked for:
//
//	go test . -run '^$' -bench ContactCacheSpeedupArtifact -benchtime 1x
func BenchmarkContactCacheSpeedupArtifact(b *testing.B) {
	writeArtifact(b, "BENCH_contactcache.json", contactCacheArtifact(b))
}

// writeArtifact writes art as indented JSON to path.
func writeArtifact(tb testing.TB, path string, art map[string]any) {
	tb.Helper()
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		tb.Fatal(err)
	}
}

// cacheArtifactRuns is how many times contactCacheArtifact times each
// sweep; the artifact records the min, median and max of the runs.
const cacheArtifactRuns = 3

// spread summarizes repeated measurements as their min, median and max.
func spread[T int64 | float64](runs []T) map[string]T {
	s := slices.Clone(runs)
	slices.Sort(s)
	return map[string]T{"min": s[0], "median": s[len(s)/2], "max": s[len(s)-1]}
}

// hostBlock describes the machine and source an artifact was measured on,
// in the same form BENCH_scan.json records.
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

// liveTable runs every cell of exp under opt live — each straight through
// vdtn.Run, with no contact cache, on a GOMAXPROCS pool — and renders the
// default table of those results: the reference a replayed sweep must
// match bit for bit.
func liveTable(tb testing.TB, exp vdtn.Experiment, opt vdtn.ExperimentOptions) vdtn.ExperimentTable {
	tb.Helper()
	cfgs, err := vdtn.ExperimentCellConfigs(exp, opt)
	if err != nil {
		tb.Fatal(err)
	}
	cells := make([]vdtn.ExperimentCellResult, len(cfgs))
	errs := make([]error, len(cfgs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(cfgs); i = int(next.Add(1)) - 1 {
				cells[i].Result, errs[i] = vdtn.Run(cfgs[i])
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		tb.Fatal(err)
	}
	res := vdtn.ExperimentResults{Experiment: exp, Options: opt, Cells: cells}
	return res.DefaultTable()
}

// contactCacheArtifact measures the contact cache on a multi-series,
// multi-x experiment — fig5's full 3-series × 5-TTL sweep at a scaled
// horizon — and returns the comparison with the host it ran on:
//
//   - the replayed sweep vs the live per-cell reference (liveTable), wall
//     clock, cacheArtifactRuns times each;
//   - a sweep served from the persisted store (views read from disk, no recording).
//
// It fails tb unless every replayed and the store-served table are
// bit-identical to the live one, the store-served sweep records nothing,
// and the replayed sweep is not much slower in the median.
func contactCacheArtifact(tb testing.TB) map[string]any {
	exp, ok := vdtn.ExperimentByID("fig5")
	if !ok {
		tb.Fatal("fig5 missing from catalog")
	}
	opt := vdtn.ExperimentOptions{Seeds: []uint64{1, 2}, Scale: 0.25}
	cells := len(exp.Scenarios) * len(exp.Xs) * len(opt.Seeds)

	var uncachedMs, cachedMs []int64
	var speedups []float64
	var plain vdtn.ExperimentTable
	var cache *vdtn.ContactCache
	var ccDir string
	for range cacheArtifactRuns {
		start := time.Now()
		plain = liveTable(tb, exp, opt)
		uncached := time.Since(start)

		// Replayed sweep, persisting the fig5 fleet's traces for the
		// store-served sweep below.
		ccDir = tb.TempDir()
		cache = &vdtn.ContactCache{Dir: ccDir}
		copt := opt
		copt.ContactCache = cache
		start = time.Now()
		cachedRes, err := vdtn.RunExperimentE(exp, copt)
		if err != nil {
			tb.Fatal(err)
		}
		cached := time.Since(start)
		cache.Close()
		if !reflect.DeepEqual(plain.Series, cachedRes.DefaultTable().Series) {
			tb.Fatal("replayed experiment table diverged from the live one")
		}
		uncachedMs = append(uncachedMs, uncached.Milliseconds())
		cachedMs = append(cachedMs, cached.Milliseconds())
		speedups = append(speedups, float64(uncached)/float64(cached))
	}

	// Sweep served from the last run's persisted traces: bit-identical
	// table, zero re-recordings.
	stored := &vdtn.ContactCache{Dir: ccDir}
	sopt := opt
	sopt.ContactCache = stored
	storedRes, err := vdtn.RunExperimentE(exp, sopt)
	if err != nil {
		tb.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Series, storedRes.DefaultTable().Series) {
		tb.Fatal("store-served experiment table diverged from the live one")
	}
	if stored.Recorded() != 0 {
		tb.Fatalf("store-served sweep re-recorded %d traces despite the persisted cache", stored.Recorded())
	}
	stored.Close()
	speedup := spread(speedups)
	tb.Logf("%d cells over %d runs: live %v ms, replayed %v ms, speedup %v (%d recording passes)",
		cells, cacheArtifactRuns, uncachedMs, cachedMs, speedups, cache.Recorded())
	// Expected speedup is ~2x; the loose bound only catches a genuinely
	// regressed cache, not scheduler noise on shared CI runners.
	if speedup["median"] < 0.7 {
		tb.Errorf("replayed sweep much slower than live cells: median %.2fx", speedup["median"])
	}

	return map[string]any{
		"benchmark":           "contact-trace cache: replayed sweep vs live per-cell reference",
		"host":                hostBlock(),
		"runs":                cacheArtifactRuns,
		"experiment":          exp.ID,
		"series":              len(exp.Scenarios),
		"x_points":            len(exp.Xs),
		"seeds":               len(opt.Seeds),
		"cells":               cells,
		"scale":               opt.Scale,
		"uncached_ms":         spread(uncachedMs),
		"cached_ms":           spread(cachedMs),
		"speedup":             speedup,
		"recordings":          cache.Recorded(),
		"tables_equal":        true,
		"tables_equal_stored": true,
	}
}
