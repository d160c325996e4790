package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"vdtn/internal/scenario"
	"vdtn/internal/sim"
	"vdtn/internal/wireless"
)

// CacheEventKind classifies one contact-cache lookup outcome.
type CacheEventKind int

const (
	// CacheHit: the trace was already memoized in this cache's memory.
	CacheHit CacheEventKind = iota
	// CacheHitDisk: the trace was opened from the persisted store;
	// Elapsed is the open (map + validate) time.
	CacheHitDisk
	// CacheRecorded: a miss — the recording pass actually ran; Elapsed is
	// its cost.
	CacheRecorded
)

// String names the event kind for progress output.
func (k CacheEventKind) String() string {
	switch k {
	case CacheHit:
		return "hit"
	case CacheHitDisk:
		return "hit(disk)"
	case CacheRecorded:
		return "recorded"
	default:
		return fmt.Sprintf("CacheEventKind(%d)", int(k))
	}
}

// CacheEvent is one contact-cache lookup outcome, delivered to the
// observer a Runner threads through the sweep (Observer.CacheEvent).
type CacheEvent struct {
	Kind        CacheEventKind
	Fingerprint string
	// Elapsed is the recording or disk-load cost; zero for memory hits.
	Elapsed time.Duration
}

// ContactCache memoizes recorded contact traces by scenario fingerprint,
// so a sweep's many (series, x) cells that share one (scenario, seed)
// mobility process simulate it exactly once and replay it everywhere else.
// Replayed cells are bit-identical to live cells (see sim.RecordContacts),
// so a cached experiment table equals the uncached one.
//
// The cache is safe for the runner's worker pool: concurrent requests for
// the same key block behind a single recording pass; requests for distinct
// keys record in parallel (Prewarm exploits this to front-load all of a
// sweep's recording passes). With Dir set, recordings are additionally
// persisted on disk in a sharded layout (see traceStore: 2-level fan-out
// directories, each file's mtime its last-use stamp) and served on later
// runs as read-only memory-mapped views, so the transition stream stays in
// the kernel page cache — one physical copy shared by every concurrent
// sweep process. Every trace is served as a wireless.RecordingView (a miss
// serves a view of the bytes it just encoded), and each replaying cell
// pays only a cursor. A damaged file (truncation at any byte, bit rot, torn
// copy) is detected, reported through Warn, and re-recorded — never
// silently replayed.
type ContactCache struct {
	// Dir, when non-empty, is the on-disk persistence directory. It is
	// created on first write.
	Dir string

	// MaxBytes, when positive, bounds the persisted store's total size:
	// after each trace is persisted or opened, least-recently-used traces
	// are evicted until the shards fit the budget (see GC). Zero means
	// unbounded.
	MaxBytes int64

	// Warn, when non-nil, receives one message per non-fatal cache anomaly:
	// an unreadable, corrupt, or scenario-mismatched persisted trace. Each
	// distinct (cause, fingerprint) pair is reported once per cache
	// instance, so distinct damaged traces each get their own report. Nil
	// discards them.
	Warn func(msg string)

	mu      sync.Mutex
	entries map[string]*cacheEntry
	disk    *traceStore
	records uint64 // recording passes actually executed (not served from memory/disk)
	warned  map[string]bool
}

// cacheEntry is one fingerprint's memoization slot: a view of the mapped
// file for a disk hit, a view of the freshly encoded bytes for a miss.
type cacheEntry struct {
	once sync.Once
	view *wireless.RecordingView
	err  error
}

// entry returns (creating if needed) the memoization slot for key.
func (cc *ContactCache) entry(key string) *cacheEntry {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.entries == nil {
		cc.entries = make(map[string]*cacheEntry)
	}
	e := cc.entries[key]
	if e == nil {
		e = &cacheEntry{}
		cc.entries[key] = e
	}
	return e
}

// store returns the sharded disk store (nil when Dir is unset).
func (cc *ContactCache) store() *traceStore {
	if cc.Dir == "" {
		return nil
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.disk == nil {
		cc.disk = newTraceStore(cc.Dir)
	}
	return cc.disk
}

// Source returns a view of cfg's contact process, recording it on first
// use: with Dir set, a shared read-only mmap view of the persisted trace
// when one is usable, otherwise a view of the recording's binary encoding
// (persisted on the way when Dir is set). The returned view is shared.
func (cc *ContactCache) Source(cfg sim.Config) (*wireless.RecordingView, error) {
	return cc.sourceWith(context.Background(), cfg, nil)
}

// sourceWith is Source with a context — a cancelled ctx interrupts an
// in-flight recording pass promptly (between two events of its mobility
// simulation) and returns ctx.Err(), and a cancelled pass is not memoized
// — and a cache-event hook: note (when non-nil) learns whether this lookup
// hit memory, opened the persisted trace, or ran the recording pass. Only
// the single-flight winner observes the disk or recording event; callers
// that waited behind it (or arrived later) observe a memory hit.
func (cc *ContactCache) sourceWith(ctx context.Context, cfg sim.Config, note func(CacheEvent)) (*wireless.RecordingView, error) {
	if !cacheable(cfg) {
		return nil, fmt.Errorf("experiments: contact cache cannot serve a contact-plan or replay scenario")
	}
	key := scenario.ContactFingerprint(cfg)
	e := cc.entry(key)
	ran := false
	e.once.Do(func() {
		ran = true
		// The recover runs inside the once: a panic escaping here would
		// mark the once done with (nil, nil), handing every later caller a
		// nil trace with no error.
		defer func() {
			if r := recover(); r != nil {
				e.err = fmt.Errorf("experiments: recording %s panicked: %v", key, r)
			}
		}()
		e.view, e.err = cc.load(ctx, key, cfg, note)
	})
	if e.err != nil && (errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded)) {
		// Cancellation is a property of this call's context, not of the
		// key: drop the poisoned memoization so a later run (a resumed
		// sweep in the same process) records the trace instead of
		// replaying the stale error.
		cc.mu.Lock()
		if cc.entries[key] == e {
			delete(cc.entries, key)
		}
		cc.mu.Unlock()
	}
	if !ran && note != nil && e.err == nil {
		note(CacheEvent{Kind: CacheHit, Fingerprint: key})
	}
	return e.view, e.err
}

// load fills one cache entry: an opened view of the persisted trace if
// usable, else the contacts-only recording pass, encoded once — those
// bytes are persisted when Dir is set and served through a view rather
// than re-read from the file they were written to.
func (cc *ContactCache) load(ctx context.Context, key string, cfg sim.Config, note func(CacheEvent)) (*wireless.RecordingView, error) {
	st := cc.store()
	start := time.Now()
	if st != nil {
		// The budget check runs once per loaded key, never on memoized
		// hits — a GC pass walks the whole store.
		defer cc.gcAfterUse()
		if v := cc.openView(st, key, cfg); v != nil {
			if note != nil {
				note(CacheEvent{Kind: CacheHitDisk, Fingerprint: key, Elapsed: time.Since(start)})
			}
			return v, nil
		}
	}
	rec, err := sim.RecordContactsContext(ctx, contactCanonical(cfg))
	if err != nil {
		return nil, err
	}
	if note != nil {
		note(CacheEvent{Kind: CacheRecorded, Fingerprint: key, Elapsed: time.Since(start)})
	}
	cc.mu.Lock()
	cc.records++
	cc.mu.Unlock()
	data := wireless.EncodeBinary(rec)
	if st != nil {
		// Persistence is an optimization: a full disk must not fail a run
		// that already holds a valid recording, so errors are swallowed.
		st.put(key, data)
	}
	return wireless.NewRecordingView(data)
}

// openView maps and verifies the persisted trace for key and stamps its
// last use. nil means no usable copy (absent, unreadable, damaged, or
// recorded for a different scenario); every cause except plain absence is
// surfaced via Warn, and the mapping is always released on the rejection
// paths — a failed validation must not leak an mmap for the life of the
// sweep.
func (cc *ContactCache) openView(st *traceStore, key string, cfg sim.Config) *wireless.RecordingView {
	path := st.shardPath(key)
	v, err := wireless.OpenRecordingView(path)
	if err != nil {
		var pathErr *os.PathError
		switch {
		case os.IsNotExist(err):
		case errors.As(err, &pathErr):
			cc.warnf("io:"+key, "contact cache: reading %s: %v; re-recording", path, err)
		default:
			cc.warnf("corrupt:"+key, "contact cache: rejecting %s: %v; re-recording", path, err)
		}
		return nil
	}
	if err := sim.ReplaySourceCompatible(contactCanonical(cfg), v); err != nil {
		v.Close()
		cc.warnf("mismatch:"+key, "contact cache: %s does not match the scenario: %v; re-recording", path, err)
		return nil
	}
	st.stamp(key)
	return v
}

// contactCanonical keeps exactly the fields the contact process can see —
// the ones ContactFingerprint hashes — and resets everything else
// (traffic, routing, buffers, tracing) to the defaults. The recording
// pass therefore neither depends on nor validates a cell's non-contact
// configuration: one cell with, say, an invalid TTL must not poison the
// trace its whole (scenario, seed) group shares.
func contactCanonical(cfg sim.Config) sim.Config {
	c := sim.DefaultConfig()
	c.Seed = cfg.Seed
	c.Duration = cfg.Duration
	c.Map = cfg.Map
	c.Vehicles = cfg.Vehicles
	c.Relays = cfg.Relays
	c.SpeedLo, c.SpeedHi = cfg.SpeedLo, cfg.SpeedHi
	c.PauseLo, c.PauseHi = cfg.PauseLo, cfg.PauseHi
	c.Range = cfg.Range
	c.ScanInterval = cfg.ScanInterval
	return c
}

// cacheable reports whether the cache can serve cfg's contact process: it
// comes from mobility, neither from a contact plan nor from a trace the
// caller already supplied.
func cacheable(cfg sim.Config) bool { return cfg.Plan == nil && cfg.ReplaySource == nil }

// Prewarm loads every distinct contact process in cfgs — opening its
// persisted trace or running its recording pass — over its own worker
// pool, so a sweep's cells find their traces already in memory instead of
// serializing behind first-touch single-flight. Configurations the cache
// cannot serve (see cacheable) are skipped.
// workers <= 0 defaults to GOMAXPROCS. The returned error joins every
// failed recording; a failure is also memoized per key, so later Source
// calls for that key report it again.
func (cc *ContactCache) Prewarm(cfgs []sim.Config, workers int) error {
	return cc.prewarm(context.Background(), cfgs, workers, nil, nil)
}

// prewarm is Prewarm with a context, a stop hook — when stop becomes
// true, remaining un-started recordings are skipped (the sweep runner
// stops warming a cache whose sweep has already failed or been
// cancelled) — and the cache-event hook of sourceWith.
func (cc *ContactCache) prewarm(ctx context.Context, cfgs []sim.Config, workers int, stop func() bool, note func(CacheEvent)) error {
	seen := make(map[string]bool)
	var distinct []sim.Config
	for _, cfg := range cfgs {
		if !cacheable(cfg) {
			continue
		}
		key := scenario.ContactFingerprint(cfg)
		if seen[key] {
			continue
		}
		seen[key] = true
		distinct = append(distinct, cfg)
	}
	if len(distinct) == 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(distinct) {
		workers = len(distinct)
	}
	errs := make([]error, len(distinct))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if stop != nil && stop() {
					continue
				}
				if _, err := cc.sourceWith(ctx, distinct[i], note); err != nil {
					errs[i] = fmt.Errorf("experiments: prewarm %s: %w",
						scenario.ContactFingerprint(distinct[i]), err)
				}
			}
		}()
	}
	for i := range distinct {
		next <- i
	}
	close(next)
	wg.Wait()
	return errors.Join(errs...)
}

// warnf formats and delivers one warning through the hook, at most once
// per (cause, fingerprint) dedup key for the life of the cache.
func (cc *ContactCache) warnf(dedup, format string, args ...any) {
	cc.mu.Lock()
	warn := cc.Warn
	if warn == nil || cc.warned[dedup] {
		cc.mu.Unlock()
		return
	}
	if cc.warned == nil {
		cc.warned = make(map[string]bool)
	}
	cc.warned[dedup] = true
	cc.mu.Unlock()
	warn(fmt.Sprintf(format, args...))
}

// gcAfterUse applies the MaxBytes budget after a store write or view open.
// Best-effort: a GC failure never fails the lookup that triggered it.
func (cc *ContactCache) gcAfterUse() {
	if cc.MaxBytes <= 0 {
		return
	}
	_, _, _ = cc.GC()
}

// GC evicts least-recently-used persisted traces until the store fits
// MaxBytes (no-op when MaxBytes is zero or Dir is unset). Fingerprints
// currently held in memory by this cache are never evicted — they are the
// sweep's working set. It returns how many trace files were removed and
// how many bytes they freed.
func (cc *ContactCache) GC() (removed int, freed int64, err error) {
	st := cc.store()
	if st == nil || cc.MaxBytes <= 0 {
		return 0, 0, nil
	}
	cc.mu.Lock()
	keep := make(map[string]bool, len(cc.entries))
	for key := range cc.entries {
		keep[key] = true
	}
	cc.mu.Unlock()
	return st.gc(cc.MaxBytes, keep)
}

// Close closes every view the cache served, releasing the file mappings.
// The cache must not serve replays after Close (live cursors would read
// unmapped pages).
func (cc *ContactCache) Close() error {
	cc.mu.Lock()
	var views []*wireless.RecordingView
	for _, e := range cc.entries {
		if e.view != nil {
			views = append(views, e.view)
		}
	}
	cc.mu.Unlock()
	var errs []error
	for _, v := range views {
		if err := v.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Len returns the number of distinct contact traces held.
func (cc *ContactCache) Len() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return len(cc.entries)
}

// Recorded returns how many recording passes this cache actually ran —
// the misses; hits served from memory or disk do not count.
func (cc *ContactCache) Recorded() uint64 {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.records
}
