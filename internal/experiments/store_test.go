package experiments

import (
	"fmt"
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

// persistSeeds records and persists the traces of cacheConfig under seeds
// 1..n through one cache over dir, returning their fingerprints and file
// sizes in seed order.
func persistSeeds(t *testing.T, dir string, n int) (keys []string, sizes []int64) {
	t.Helper()
	warm := &ContactCache{Dir: dir}
	for seed := uint64(1); seed <= uint64(n); seed++ {
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
	return keys, sizes
}

// ageTraces backdates the persisted traces' mtimes into the past in keys
// order, so keys[0] is the least recently used.
func ageTraces(t *testing.T, dir string, keys []string) {
	t.Helper()
	st := newTraceStore(dir)
	base := time.Now().Add(-time.Hour)
	for i, key := range keys {
		when := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(st.shardPath(key), when, when); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCacheGCEvictsLRU: the size-bounded GC removes least-recently-used
// traces first (oldest file mtime) and stops as soon as the store fits the
// budget.
func TestCacheGCEvictsLRU(t *testing.T) {
	dir := t.TempDir()
	keys, sizes := persistSeeds(t, dir, 3)
	ageTraces(t, dir, keys) // seed 1 oldest, seed 3 newest

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

// TestCacheGCIgnoresStaleIndex: an index.json left by an older store that
// contradicts the shard mtimes is ignored — GC follows the mtimes and
// neither deletes nor rewrites the stale file.
func TestCacheGCIgnoresStaleIndex(t *testing.T) {
	dir := t.TempDir()
	keys, sizes := persistSeeds(t, dir, 2)
	ageTraces(t, dir, keys)
	// The stale index says the opposite: keys[1] ancient, keys[0] fresh.
	stale := fmt.Sprintf(`{"version": 1, "entries": {"%s": {"size": 1, "used": %d}, "%s": {"size": 1, "used": 1}}}`+"\n",
		keys[0], time.Now().Unix(), keys[1])
	indexPath := filepath.Join(dir, "index.json")
	if err := os.WriteFile(indexPath, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	staleAt := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(indexPath, staleAt, staleAt); err != nil {
		t.Fatal(err)
	}

	gc := &ContactCache{Dir: dir, MaxBytes: max(sizes[0], sizes[1])}
	if removed, _, err := gc.GC(); err != nil || removed != 1 {
		t.Fatalf("GC removed %d traces (err %v), want 1", removed, err)
	}
	if _, err := os.Stat(gc.store().shardPath(keys[0])); !os.IsNotExist(err) {
		t.Fatalf("oldest-mtime trace %s survived GC (err %v)", keys[0], err)
	}
	if _, err := os.Stat(gc.store().shardPath(keys[1])); err != nil {
		t.Fatalf("newest-mtime trace %s evicted: %v", keys[1], err)
	}
	data, err := os.ReadFile(indexPath)
	if err != nil {
		t.Fatalf("GC deleted the stale index: %v", err)
	}
	fi, err := os.Stat(indexPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != stale || !fi.ModTime().Equal(staleAt) {
		t.Fatalf("GC rewrote the stale index (mtime %v, want %v):\n%s", fi.ModTime(), staleAt, data)
	}
}

// TestCacheServeRefreshesRecency: a disk serve in one process is a use
// every later process sees. Cache A persists seeds 1 and 2 (seed 1 the
// older), a fresh cache B serves seed 1 from disk, and a third cache with
// a one-trace budget must then evict seed 2 and keep seed 1.
func TestCacheServeRefreshesRecency(t *testing.T) {
	dir := t.TempDir()
	keys, sizes := persistSeeds(t, dir, 2)
	ageTraces(t, dir, keys)

	b := &ContactCache{Dir: dir}
	cfg := cacheConfig()
	cfg.Seed = 1
	if _, err := b.Source(cfg); err != nil {
		t.Fatal(err)
	}
	if b.Recorded() != 0 {
		t.Fatal("cache B re-recorded seed 1 instead of serving it from disk")
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	gc := &ContactCache{Dir: dir, MaxBytes: max(sizes[0], sizes[1])}
	if removed, _, err := gc.GC(); err != nil || removed != 1 {
		t.Fatalf("GC removed %d traces (err %v), want 1", removed, err)
	}
	if _, err := os.Stat(gc.store().shardPath(keys[0])); err != nil {
		t.Fatalf("recently served seed-1 trace evicted: %v", err)
	}
	if _, err := os.Stat(gc.store().shardPath(keys[1])); !os.IsNotExist(err) {
		t.Fatalf("least-recently-used seed-2 trace survived GC (err %v)", err)
	}
}

// TestStoreEvictConcurrentlyRemoved: two processes sharing a directory can
// list the store at once and pick the same victim. A victim already gone
// when this process removes it counts as freed, so eviction stops as soon
// as the store fits instead of taking the next trace too — and reports no
// error and no bytes freed by itself.
func TestStoreEvictConcurrentlyRemoved(t *testing.T) {
	st := newTraceStore(t.TempDir())
	clock := time.Unix(1_000_000, 0)
	st.now = func() time.Time { return clock }
	keys := []string{"aa00000000000001", "bb00000000000002", "cc00000000000003"}
	for _, key := range keys {
		clock = clock.Add(time.Minute)
		if _, ok := st.put(key, make([]byte, 100)); !ok {
			t.Fatalf("put %s failed", key)
		}
	}
	listing, err := st.list()
	if err != nil || len(listing) != len(keys) {
		t.Fatalf("listed %d traces (err %v), want %d", len(listing), err, len(keys))
	}
	// The other process's GC evicts the shared LRU victim first.
	if err := os.Remove(st.shardPath(keys[0])); err != nil {
		t.Fatal(err)
	}

	removed, freed, err := st.evict(listing, 200, nil)
	if err != nil || removed != 0 || freed != 0 {
		t.Fatalf("evict = (%d, %d, %v), want (0, 0, nil): the store already fit", removed, freed, err)
	}
	for _, key := range keys[1:] {
		if _, err := os.Stat(st.shardPath(key)); err != nil {
			t.Fatalf("trace %s over-evicted: %v", key, err)
		}
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
	view, err := cache.Source(cfg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := cache.Source(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again != view {
		t.Fatal("Source returned a second view for one fingerprint")
	}
	// The view decodes to exactly the trace the recording pass produces.
	if _, rec := seedTrace(t, cfg); !reflect.DeepEqual(view.Materialize(), rec) {
		t.Fatal("mmap view holds a different trace than the recording pass")
	}
}

// TestCacheMmapFallsBack: Source degrades gracefully — no Dir means a
// view of the recording's encoding; a scenario-mismatched persisted trace
// is rejected (closing the view on the failure path), warned about once,
// re-recorded, and served from memory without re-reading the file it just
// wrote.
func TestCacheMmapFallsBack(t *testing.T) {
	memory := &ContactCache{}
	cfg := cacheConfig()
	src, err := memory.Source(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, rec := seedTrace(t, cfg)
	if !reflect.DeepEqual(src.Materialize(), rec) {
		t.Fatal("dirless Source served a different trace than the recording pass")
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
	if !reflect.DeepEqual(src.Materialize(), rec) {
		t.Fatal("Source after mismatch did not serve the re-recorded trace")
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
// clock, stamped into the shard mtimes. The traces are stamped in reverse
// creation order under a hand-advanced clock far in the past, so if the
// wall-clock mtimes the recordings left leaked into the LRU signal, the
// wrong trace would be evicted.
func TestCacheGCInjectedClock(t *testing.T) {
	dir := t.TempDir()
	keys, sizes := persistSeeds(t, dir, 3)

	st := newTraceStore(dir)
	clock := time.Unix(1_000_000, 0)
	st.now = func() time.Time { return clock }

	// Most recent use order: keys[2] (oldest), keys[1], keys[0] (newest).
	for i := len(keys) - 1; i >= 0; i-- {
		clock = clock.Add(1000 * time.Second)
		st.stamp(keys[i])
		fi, err := os.Stat(st.shardPath(keys[i]))
		if err != nil {
			t.Fatal(err)
		}
		if !fi.ModTime().Equal(clock) {
			t.Fatalf("trace %s stamped with mtime %v, want the injected clock %v", keys[i], fi.ModTime(), clock)
		}
	}

	removed, freed, err := st.gc(sizes[0]+sizes[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 || freed != sizes[2] {
		t.Fatalf("GC removed %d traces (%d bytes), want 1 (%d bytes)", removed, freed, sizes[2])
	}
	if _, err := os.Stat(st.shardPath(keys[2])); !os.IsNotExist(err) {
		t.Fatalf("least-recently-stamped trace %s survived GC (err %v)", keys[2], err)
	}
	for _, key := range keys[:2] {
		if _, err := os.Stat(st.shardPath(key)); err != nil {
			t.Fatalf("recently-stamped trace %s evicted: %v", key, err)
		}
	}
}
