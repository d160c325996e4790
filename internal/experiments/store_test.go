package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"vdtn/internal/scenario"
	"vdtn/internal/sim"
	"vdtn/internal/wireless"
)

// seedTrace records the canonical trace for cfg's contact process without
// going through a cache, for building disk fixtures.
func seedTrace(t *testing.T, cfg sim.Config) (key string, rec *wireless.Recording) {
	t.Helper()
	key = scenario.ContactFingerprint(cfg)
	rec, err := sim.RecordContacts(contactCanonical(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return key, rec
}

// TestCacheGCEvictsLRU: the size-bounded GC removes least-recently-used
// traces first (index order, falling back to file mtime) and stops as soon
// as the store fits the budget.
func TestCacheGCEvictsLRU(t *testing.T) {
	dir := t.TempDir()
	warm := &ContactCache{Dir: dir}
	var keys []string
	var sizes []int64
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := cacheConfig()
		cfg.Seed = seed
		if _, err := warm.Source(cfg); err != nil {
			t.Fatal(err)
		}
		key := scenario.ContactFingerprint(cfg)
		keys = append(keys, key)
		fi, err := os.Stat(warm.store().shardPath(key))
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, fi.Size())
	}

	// Make mtimes the LRU signal: seed 1 oldest, seed 3 newest. The index
	// written during recording has second-granularity same-time entries, so
	// remove it and let the mtime fallback order the eviction.
	if err := os.Remove(filepath.Join(dir, indexFile)); err != nil {
		t.Fatal(err)
	}
	base := time.Now().Add(-time.Hour)
	for i, key := range keys {
		when := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(warm.store().shardPath(key), when, when); err != nil {
			t.Fatal(err)
		}
	}

	// Budget for exactly the two newest traces.
	gc := &ContactCache{Dir: dir, MaxBytes: sizes[1] + sizes[2]}
	removed, freed, err := gc.GC()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 || freed != sizes[0] {
		t.Fatalf("GC removed %d traces (%d bytes), want 1 (%d bytes)", removed, freed, sizes[0])
	}
	if _, err := os.Stat(gc.store().shardPath(keys[0])); !os.IsNotExist(err) {
		t.Fatalf("least-recently-used trace %s survived GC (err %v)", keys[0], err)
	}
	for _, key := range keys[1:] {
		if _, err := os.Stat(gc.store().shardPath(key)); err != nil {
			t.Fatalf("recently-used trace %s evicted: %v", key, err)
		}
	}

	// Hot in-memory entries are never evicted, even when oldest: load
	// keys[1], starve the budget, and only keys[2] may go.
	hot := &ContactCache{Dir: dir, MaxBytes: 1}
	cfg := cacheConfig()
	cfg.Seed = 2
	if _, err := hot.Source(cfg); err != nil {
		t.Fatal(err)
	}
	if _, _, err := hot.GC(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(hot.store().shardPath(keys[1])); err != nil {
		t.Fatalf("hot trace %s evicted by GC: %v", keys[1], err)
	}
	if _, err := os.Stat(hot.store().shardPath(keys[2])); !os.IsNotExist(err) {
		t.Fatalf("cold trace %s survived a 1-byte budget (err %v)", keys[2], err)
	}
}

// TestCacheGCHonorsIndexOrder: when the index disagrees with mtimes, the
// index wins — last-use recorded there is the LRU signal.
func TestCacheGCHonorsIndexOrder(t *testing.T) {
	dir := t.TempDir()
	warm := &ContactCache{Dir: dir}
	var keys []string
	var total int64
	var maxSize int64
	for seed := uint64(1); seed <= 2; seed++ {
		cfg := cacheConfig()
		cfg.Seed = seed
		if _, err := warm.Source(cfg); err != nil {
			t.Fatal(err)
		}
		key := scenario.ContactFingerprint(cfg)
		keys = append(keys, key)
		fi, err := os.Stat(warm.store().shardPath(key))
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
		if fi.Size() > maxSize {
			maxSize = fi.Size()
		}
	}
	// Index says keys[1] is ancient and keys[0] fresh; mtimes say nothing
	// (both just written).
	doc := indexDoc{Version: 1, Entries: map[string]indexEntry{
		keys[0]: {Size: 1, Used: time.Now().Unix()},
		keys[1]: {Size: 1, Used: 1},
	}}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, indexFile), data, 0o644); err != nil {
		t.Fatal(err)
	}

	gc := &ContactCache{Dir: dir, MaxBytes: maxSize}
	if _, _, err := gc.GC(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(gc.store().shardPath(keys[1])); !os.IsNotExist(err) {
		t.Fatalf("index-stale trace %s survived GC (err %v)", keys[1], err)
	}
	if _, err := os.Stat(gc.store().shardPath(keys[0])); err != nil {
		t.Fatalf("index-fresh trace %s evicted: %v", keys[0], err)
	}
}

// TestCacheWarnsPerCauseAndKey: two distinct damaged traces each surface
// through the Warn hook — deduplication is per (cause, fingerprint), so a
// second corrupt key is not swallowed by the first one's report — while
// repeated probes of one key stay deduplicated.
func TestCacheWarnsPerCauseAndKey(t *testing.T) {
	dir := t.TempDir()
	var warnings []string
	cache := &ContactCache{Dir: dir, Warn: func(msg string) { warnings = append(warnings, msg) }}

	cfgs := make([]sim.Config, 2)
	for i := range cfgs {
		cfgs[i] = cacheConfig()
		cfgs[i].Seed = uint64(i + 1)
		key := scenario.ContactFingerprint(cfgs[i])
		path := cache.store().shardPath(key)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte("garbage, not a trace\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, cfg := range cfgs {
		if _, err := cache.Source(cfg); err != nil {
			t.Fatal(err)
		}
	}
	if len(warnings) != 2 {
		t.Fatalf("warnings = %v, want one per damaged fingerprint", warnings)
	}
	for _, w := range warnings {
		if !strings.Contains(w, "rejecting") {
			t.Fatalf("warning %q does not name the corruption", w)
		}
	}
	// Same keys again: memoized entries, no fresh warnings.
	for _, cfg := range cfgs {
		if _, err := cache.Source(cfg); err != nil {
			t.Fatal(err)
		}
	}
	if len(warnings) != 2 {
		t.Fatalf("repeated lookups re-warned: %v", warnings)
	}
}

// TestCacheMmapSourceServesViews: with Dir set, Source serves a persisted
// trace as a shared mmap-backed RecordingView; the sweep over views is
// bit-identical to the uncached table; and the view is the same instance
// for every cell of a key.
func TestCacheMmapSourceServesViews(t *testing.T) {
	dir := t.TempDir()
	exp := cacheExperiment()
	opt := Options{Seeds: []uint64{1, 2}, BaseConfig: cacheConfig}

	plain := mustRun(t, exp, opt)

	// The first sweep records and persists; the second cache serves the
	// persisted traces.
	if _, err := RunE(exp, Options{Seeds: opt.Seeds, BaseConfig: cacheConfig, ContactCache: &ContactCache{Dir: dir}}); err != nil {
		t.Fatal(err)
	}
	cache := &ContactCache{Dir: dir}
	defer cache.Close()
	opt.ContactCache = cache
	mapped, err := RunE(exp, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Series, mapped.DefaultTable().Series) {
		t.Fatal("mmap-served sweep diverged from the uncached table")
	}
	if cache.Recorded() != 0 {
		t.Fatalf("sweep over the persisted store ran %d recording passes", cache.Recorded())
	}

	cfg := cacheConfig()
	src, err := cache.Source(cfg)
	if err != nil {
		t.Fatal(err)
	}
	view, ok := src.(*wireless.RecordingView)
	if !ok {
		t.Fatalf("Source returned %T, want *wireless.RecordingView", src)
	}
	again, err := cache.Source(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again != src {
		t.Fatal("Source returned a second view for one fingerprint")
	}
	// The view decodes to exactly the trace the recording pass produces.
	if _, rec := seedTrace(t, cfg); !reflect.DeepEqual(view.Materialize(), rec) {
		t.Fatal("mmap view holds a different trace than the recording pass")
	}
}

// TestCacheMmapFallsBack: Source degrades gracefully — no Dir means the
// in-memory recording; a scenario-mismatched persisted trace is rejected
// (closing the view on the failure path), warned about once, re-recorded,
// and served from memory without re-reading the file it just wrote.
func TestCacheMmapFallsBack(t *testing.T) {
	memory := &ContactCache{}
	cfg := cacheConfig()
	src, err := memory.Source(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := src.(*wireless.Recording); !ok {
		t.Fatalf("dirless Source returned %T, want *wireless.Recording", src)
	}

	// A persisted trace recorded at a different scan interval: guaranteed
	// ReplaySourceCompatible failure, independent of mobility randomness.
	dir := t.TempDir()
	other := cfg
	other.ScanInterval = 2
	otherRec, err := sim.RecordContacts(contactCanonical(other))
	if err != nil {
		t.Fatal(err)
	}
	key := scenario.ContactFingerprint(cfg)
	var warnings []string
	cache := &ContactCache{Dir: dir, Warn: func(msg string) { warnings = append(warnings, msg) }}
	defer cache.Close()
	path := cache.store().shardPath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, wireless.EncodeBinary(otherRec), 0o644); err != nil {
		t.Fatal(err)
	}

	src, err = cache.Source(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := src.(*wireless.Recording); !ok {
		t.Fatalf("Source after mismatch returned %T, want the re-recorded *wireless.Recording", src)
	}
	if got := src.Meta().ScanInterval; got != cfg.ScanInterval {
		t.Fatalf("served trace has scan interval %v, want the re-recorded %v", got, cfg.ScanInterval)
	}
	if cache.Recorded() != 1 {
		t.Fatalf("mismatched trace triggered %d recordings, want 1", cache.Recorded())
	}
	found := false
	for _, w := range warnings {
		found = found || strings.Contains(w, "does not match the scenario")
	}
	if !found {
		t.Fatalf("mismatch not surfaced via Warn: %v", warnings)
	}
}

// TestCacheGCInjectedClock: eviction order follows the store's injected
// clock, with no wall-clock or file-mtime involvement. The traces are
// touched in reverse creation order under a hand-advanced clock, so if
// either mtimes (all written within the same second) or the recording
// cache's wall-clock stamps leaked into the LRU signal, the wrong trace
// would be evicted.
func TestCacheGCInjectedClock(t *testing.T) {
	dir := t.TempDir()
	warm := &ContactCache{Dir: dir}
	var keys []string
	var sizes []int64
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := cacheConfig()
		cfg.Seed = seed
		if _, err := warm.Source(cfg); err != nil {
			t.Fatal(err)
		}
		key := scenario.ContactFingerprint(cfg)
		keys = append(keys, key)
		fi, err := os.Stat(warm.store().shardPath(key))
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, fi.Size())
	}

	st := newTraceStore(dir)
	var clock int64 = 1_000_000
	st.now = func() int64 { return clock }

	// Most recent use order: keys[2] (oldest), keys[1], keys[0] (newest) —
	// the reverse of creation order and far in the "past" relative to the
	// wall-clock stamps the recordings wrote.
	for i := len(keys) - 1; i >= 0; i-- {
		clock += 1000
		st.touch(keys[i], sizes[i])
	}

	removed, freed, err := st.gc(sizes[0]+sizes[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 || freed != sizes[2] {
		t.Fatalf("GC removed %d traces (%d bytes), want 1 (%d bytes)", removed, freed, sizes[2])
	}
	if _, err := os.Stat(st.shardPath(keys[2])); !os.IsNotExist(err) {
		t.Fatalf("least-recently-touched trace %s survived GC (err %v)", keys[2], err)
	}
	for _, key := range keys[:2] {
		if _, err := os.Stat(st.shardPath(key)); err != nil {
			t.Fatalf("recently-touched trace %s evicted: %v", key, err)
		}
	}
}
