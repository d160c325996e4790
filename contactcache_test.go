package vdtn_test

import (
	"encoding/json"
	"os"
	"reflect"
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

// contactCacheArtifact measures the contact cache on a multi-series,
// multi-x experiment — fig5's full 3-series × 5-TTL sweep at a scaled
// horizon — and returns the comparison:
//
//   - cached vs uncached sweep wall clock;
//   - a sweep served from the persisted store (mmap views, no recording).
//
// It fails tb unless the cached and store-served tables are bit-identical
// to the uncached one, the store-served sweep records nothing, and the
// cached run is not much slower.
func contactCacheArtifact(tb testing.TB) map[string]any {
	exp, ok := vdtn.ExperimentByID("fig5")
	if !ok {
		tb.Fatal("fig5 missing from catalog")
	}
	opt := vdtn.ExperimentOptions{Seeds: []uint64{1, 2}, Scale: 0.25}
	cells := len(exp.Scenarios) * len(exp.Xs) * len(opt.Seeds)

	start := time.Now()
	plainRes, err := vdtn.RunExperimentE(exp, opt)
	if err != nil {
		tb.Fatal(err)
	}
	uncached := time.Since(start)
	plain := plainRes.DefaultTable()

	// Cached run, persisting the fig5 fleet's traces for the store-served
	// sweep below.
	ccDir := tb.TempDir()
	cache := &vdtn.ContactCache{Dir: ccDir}
	opt.ContactCache = cache
	start = time.Now()
	cachedRes, err := vdtn.RunExperimentE(exp, opt)
	if err != nil {
		tb.Fatal(err)
	}
	cachedDur := time.Since(start)
	cache.Close()

	if !reflect.DeepEqual(plain.Series, cachedRes.DefaultTable().Series) {
		tb.Fatal("cached experiment table diverged from the uncached one")
	}

	// Sweep served from the persisted traces: bit-identical table, zero
	// re-recordings.
	stored := &vdtn.ContactCache{Dir: ccDir}
	sopt := opt
	sopt.ContactCache = stored
	storedRes, err := vdtn.RunExperimentE(exp, sopt)
	if err != nil {
		tb.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Series, storedRes.DefaultTable().Series) {
		tb.Fatal("store-served experiment table diverged from the uncached one")
	}
	if stored.Recorded() != 0 {
		tb.Fatalf("store-served sweep re-recorded %d traces despite the persisted cache", stored.Recorded())
	}
	stored.Close()
	speedup := float64(uncached) / float64(cachedDur)
	tb.Logf("%d cells: uncached %v, cached %v (%.2fx, %d recording passes)",
		cells, uncached.Round(time.Millisecond), cachedDur.Round(time.Millisecond), speedup, cache.Recorded())
	// Expected speedup is ~4x; the loose bound only catches a genuinely
	// regressed cache, not scheduler noise on shared CI runners.
	if speedup < 0.7 {
		tb.Errorf("cached run much slower than uncached: %.2fx", speedup)
	}

	return map[string]any{
		"benchmark":         "contact-trace cache: cached vs uncached experiment run",
		"experiment":        exp.ID,
		"series":            len(exp.Scenarios),
		"x_points":          len(exp.Xs),
		"seeds":             len(opt.Seeds),
		"cells":             cells,
		"scale":             opt.Scale,
		"uncached_ms":       uncached.Milliseconds(),
		"cached_ms":         cachedDur.Milliseconds(),
		"speedup":           speedup,
		"recordings":        cache.Recorded(),
		"tables_equal":      true,
		"tables_equal_mmap": true,
	}
}
