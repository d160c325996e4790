package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vdtn/internal/scenario"
	"vdtn/internal/sim"
)

// TestCacheIndexRepairAfterCrash simulates the crash window between a
// shard rename and the index flush: the trace is on disk, index.json has
// never heard of it. The next cache must serve the shard file instead of
// re-simulating, count the repair once through Warn, and persist the
// healed index on Close.
func TestCacheIndexRepairAfterCrash(t *testing.T) {
	dir := t.TempDir()
	cfg := cacheConfig()
	cfg.Seed = 7
	key := scenario.ContactFingerprint(cfg)

	writer := &ContactCache{Dir: dir}
	if _, err := writer.Source(cfg); err != nil {
		t.Fatal(err)
	}
	if err := writer.Close(); err != nil {
		t.Fatal(err)
	}
	// The crash: the shard rename landed, the index flush did not.
	if err := os.Remove(filepath.Join(dir, "index.json")); err != nil {
		t.Fatal(err)
	}

	var warns []string
	after := &ContactCache{Dir: dir, Warn: func(msg string) { warns = append(warns, msg) }}
	defer after.Close()
	if _, err := after.Source(cfg); err != nil {
		t.Fatal(err)
	}
	if after.Recorded() != 0 {
		t.Fatalf("cache re-simulated %d traces that were on disk", after.Recorded())
	}
	if len(warns) != 1 || !strings.Contains(warns[0], "had no entry") || !strings.Contains(warns[0], key) {
		t.Fatalf("repair warnings = %v, want one naming %s", warns, key)
	}
	// Dedup per cause: serving the same trace again reports nothing new.
	if _, err := (&ContactCache{Dir: dir, Warn: func(string) {}}).Source(cfg); err != nil {
		t.Fatal(err)
	}
	if len(warns) != 1 {
		t.Fatalf("repair warned %d times, want once", len(warns))
	}
	if err := after.Close(); err != nil {
		t.Fatal(err)
	}

	// Close persisted the healed index: the entry is back.
	data, err := os.ReadFile(filepath.Join(dir, "index.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Entries map[string]indexEntry `json:"entries"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if e, ok := doc.Entries[key]; !ok || e.Size <= 0 {
		t.Fatalf("healed index lacks %s: %v", key, doc.Entries)
	}
}

// TestStoreHealDropsVanishedEntries covers the inverse crash (GC removed
// the shard, died before the index flush): a phantom index entry is
// dropped at load, reported through the repaired hook, and stays gone
// after the next flush.
func TestStoreHealDropsVanishedEntries(t *testing.T) {
	dir := t.TempDir()
	phantom := "00deadbeef000000"
	doc := indexDoc{Version: 1, Entries: map[string]indexEntry{
		phantom: {Size: 1024, Used: 42},
	}}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, indexFile), data, 0o644); err != nil {
		t.Fatal(err)
	}

	var repairs []string
	st := newTraceStore(dir)
	st.repaired = func(key, cause string) { repairs = append(repairs, key+": "+cause) }
	st.flush() // first index touch: load + heal + rewrite

	if len(repairs) != 1 || !strings.Contains(repairs[0], phantom) || !strings.Contains(repairs[0], "vanished") {
		t.Fatalf("repairs = %v, want the phantom entry dropped", repairs)
	}
	rewritten, err := os.ReadFile(filepath.Join(dir, indexFile))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(rewritten), phantom) {
		t.Fatalf("flushed index still lists the vanished trace:\n%s", rewritten)
	}
}

// TestCacheRecordingContextCancellation: a cancelled recording pass
// returns ctx.Err() promptly and is not memoized — the same cache records
// the key cleanly on the next call with a live context (the resumed-sweep
// path), and the cancelled pass never persists a torn trace.
func TestCacheRecordingContextCancellation(t *testing.T) {
	dir := t.TempDir()
	cc := &ContactCache{Dir: dir}
	defer cc.Close()
	cfg := cacheConfig()
	cfg.Seed = 3

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cc.sourceWith(ctx, cfg, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled recording returned %v, want context.Canceled", err)
	}
	if cc.Len() != 0 {
		t.Fatalf("cancelled recording stayed memoized (%d entries)", cc.Len())
	}
	if _, err := os.Stat(cc.store().shardPath(scenario.ContactFingerprint(cfg))); !os.IsNotExist(err) {
		t.Fatalf("cancelled recording persisted a trace: stat err %v", err)
	}

	src, err := cc.sourceWith(context.Background(), cfg, nil)
	if err != nil || src == nil {
		t.Fatalf("recording after a cancelled pass: %v", err)
	}
	if cc.Recorded() != 1 {
		t.Fatalf("recorded %d passes, want exactly 1", cc.Recorded())
	}

	// The prewarm pool under a cancelled context reports the cancellation
	// of its recording passes, and the keys stay recordable afterwards.
	cfg2 := cfg
	cfg2.Seed = 4
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if err := cc.prewarm(ctx2, []sim.Config{}, 2, nil, nil); err != nil {
		t.Fatalf("empty prewarm errored: %v", err)
	}
	if err := cc.prewarm(ctx2, []sim.Config{cfg2}, 2, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled prewarm returned %v, want context.Canceled", err)
	}
	if _, err := cc.Source(cfg2); err != nil {
		t.Fatalf("recording after cancelled prewarm: %v", err)
	}
}
