package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"vdtn/internal/contactplan"
	"vdtn/internal/roadmap"
	"vdtn/internal/sim"
	"vdtn/internal/units"
	"vdtn/internal/wireless"
)

// cacheConfig is the small scenario the cache tests sweep.
func cacheConfig() sim.Config {
	c := sim.DefaultConfig()
	c.Duration = units.Minutes(30)
	c.Map = roadmap.Grid(4, 4, 250)
	c.Vehicles = 8
	c.Relays = 2
	c.VehicleBuffer = units.MB(5)
	c.RelayBuffer = units.MB(10)
	c.MsgIntervalLo = 8
	c.MsgIntervalHi = 16
	c.TTL = units.Minutes(15)
	return c
}

// cacheExperiment is a multi-series, multi-x TTL sweep: every cell of one
// seed shares the mobility process, so the cache should record once per
// seed.
func cacheExperiment() Experiment {
	return Experiment{
		ID:     "cache-test",
		Title:  "cache test sweep",
		Base:   cacheConfig,
		Axis:   "ttl_min",
		Xs:     []float64{10, 15, 20},
		Metric: MetricDeliveryProb,
		Scenarios: []Scenario{
			{Name: "FIFO-FIFO", Protocol: sim.ProtoEpidemic, Policy: sim.PolicyFIFOFIFO},
			{Name: "Lifetime", Protocol: sim.ProtoEpidemic, Policy: sim.PolicyLifetime},
			{Name: "SprayAndWait", Protocol: sim.ProtoSprayAndWait, Policy: sim.PolicyLifetime},
		},
	}
}

// traceOf serves cfg through cc.Source and returns the served view plus
// the trace in slice form.
func traceOf(t *testing.T, cc *ContactCache, cfg sim.Config) (*wireless.RecordingView, *wireless.Recording) {
	t.Helper()
	v, err := cc.Source(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return v, v.Materialize()
}

// liveResults runs every cell of exp under opt live, straight through
// sim.New with no contact cache: the reference a replayed sweep must match
// bit for bit.
func liveResults(t *testing.T, exp Experiment, opt Options) []sim.Result {
	t.Helper()
	cfgs, err := CellConfigs(exp, opt)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]sim.Result, len(cfgs))
	for i, cfg := range cfgs {
		w, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = w.Run()
	}
	return out
}

// requireLiveResults fails t unless res holds exactly the live results.
func requireLiveResults(t *testing.T, res *Results, live []sim.Result) {
	t.Helper()
	if len(res.Cells) != len(live) {
		t.Fatalf("sweep holds %d cells, want %d", len(res.Cells), len(live))
	}
	for i, c := range res.Cells {
		if !reflect.DeepEqual(c.Result, live[i]) {
			t.Fatalf("cell %d (%s x=%v seed %d) diverged from its live run", i, c.Series, c.X, c.Seed)
		}
	}
}

// TestSharedCacheRunMatchesLiveCells is the harness-level equivalence
// guarantee: a sweep replaying a shared cache's traces holds, bit for
// bit, the results of running each cell live.
func TestSharedCacheRunMatchesLiveCells(t *testing.T) {
	exp := cacheExperiment()
	opt := Options{Seeds: []uint64{1, 2}}
	live := liveResults(t, exp, opt)

	cache := &ContactCache{}
	opt.ContactCache = cache
	res, err := RunE(exp, opt)
	if err != nil {
		t.Fatal(err)
	}
	requireLiveResults(t, res, live)
	// 3 series × 3 x × 2 seeds = 18 cells, but only one mobility process
	// per seed.
	if cache.Len() != 2 {
		t.Fatalf("cache holds %d traces, want 2 (one per seed)", cache.Len())
	}
	if cache.Recorded() != 2 {
		t.Fatalf("cache ran %d recording passes, want 2", cache.Recorded())
	}
}

// sequenceObserver logs cache recordings and cell starts in the order the
// runner delivers them.
type sequenceObserver struct {
	BaseObserver
	events []string // "recorded <fingerprint>" or "cell <index>"
}

func (o *sequenceObserver) CellStarted(c CellID) {
	o.events = append(o.events, fmt.Sprintf("cell %d", c.Index))
}

func (o *sequenceObserver) CacheEvent(ev CacheEvent) {
	if ev.Kind == CacheRecorded {
		o.events = append(o.events, "recorded "+ev.Fingerprint)
	}
}

// fingerprints returns the distinct contact fingerprints of exp's cells.
func fingerprints(t *testing.T, exp Experiment, opt Options) map[string]bool {
	t.Helper()
	cfgs, err := CellConfigs(exp, opt)
	if err != nil {
		t.Fatal(err)
	}
	keys := make(map[string]bool)
	for _, cfg := range cfgs {
		keys[sim.ContactFingerprint(cfg)] = true
	}
	return keys
}

// TestRunnerRecordsEachContactProcessOnce: a sweep with no cache of its
// own still replays — it records each distinct contact process exactly
// once, and every cell's result equals its live run.
func TestRunnerRecordsEachContactProcessOnce(t *testing.T) {
	exp := gridExperiment() // the vehicles grid axis forks one trace per value
	opt := Options{Seeds: []uint64{1, 2}, Workers: 4}
	live := liveResults(t, exp, opt)
	want := fingerprints(t, exp, opt)

	obs := &sequenceObserver{}
	var mem MemorySink
	r := Runner{Options: opt, Observer: obs, Sink: &mem}
	if err := r.Run(context.Background(), exp); err != nil {
		t.Fatal(err)
	}
	requireLiveResults(t, mem.Results(), live)
	recorded := make(map[string]int)
	for _, ev := range obs.events {
		if key, ok := strings.CutPrefix(ev, "recorded "); ok {
			recorded[key]++
		}
	}
	if len(recorded) != len(want) {
		t.Fatalf("recorded %d distinct traces, want %d", len(recorded), len(want))
	}
	for key, n := range recorded {
		if !want[key] || n != 1 {
			t.Fatalf("trace %s recorded %d times (a fingerprint of the sweep: %v), want once", key, n, want[key])
		}
	}
}

// TestRunnerOnePoolRecordsFirst: the runner's single pool takes the
// recording tasks before the cells, so with one worker every trace is
// recorded before the first cell starts.
func TestRunnerOnePoolRecordsFirst(t *testing.T) {
	exp := gridExperiment()
	opt := Options{Seeds: []uint64{1, 2}, Workers: 1}
	want := len(fingerprints(t, exp, opt))

	obs := &sequenceObserver{}
	r := Runner{Options: opt, Observer: obs}
	if err := r.Run(context.Background(), exp); err != nil {
		t.Fatal(err)
	}
	if len(obs.events) < want {
		t.Fatalf("only %d events, want at least %d recordings", len(obs.events), want)
	}
	for i, ev := range obs.events {
		if recorded := strings.HasPrefix(ev, "recorded "); recorded != (i < want) {
			t.Fatalf("event %d is %q; want the %d recordings first, then only cells:\n%s",
				i, ev, want, strings.Join(obs.events, "\n"))
		}
	}
}

// TestCacheNeverCrossesSeeds pins the keying contract at the cache level:
// distinct seeds yield distinct entries with genuinely different traces.
func TestCacheNeverCrossesSeeds(t *testing.T) {
	cache := &ContactCache{}
	recs := make(map[uint64]any)
	for seed := uint64(1); seed <= 4; seed++ {
		cfg := cacheConfig()
		cfg.Seed = seed
		src, rec := traceOf(t, cache, cfg)
		for other, prev := range recs {
			if reflect.DeepEqual(prev, rec.Transitions) {
				t.Fatalf("seed %d received seed %d's contact trace", seed, other)
			}
		}
		recs[seed] = rec.Transitions

		again, err := cache.Source(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if again != src {
			t.Fatalf("seed %d: repeated lookup did not hit the cache", seed)
		}
	}
	if cache.Len() != 4 {
		t.Fatalf("cache holds %d entries, want 4", cache.Len())
	}
}

// TestCacheConcurrentAccess hammers one shared cache from many goroutines
// mixing hits and misses; run under -race this is the worker-pool safety
// test, and single-flight must still hold (one recording per key).
func TestCacheConcurrentAccess(t *testing.T) {
	cache := &ContactCache{}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				cfg := cacheConfig()
				cfg.Seed = uint64(1 + (w+i)%3)
				cfg.TTL = units.Minutes(float64(10 + i)) // must not affect the key
				if _, err := cache.Source(cfg); err != nil {
					errs <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if cache.Len() != 3 {
		t.Fatalf("cache holds %d entries, want 3", cache.Len())
	}
	if cache.Recorded() != 3 {
		t.Fatalf("%d recording passes for 3 keys: single-flight broken", cache.Recorded())
	}
}

// TestCacheRaceUnderWorkerPool runs the real experiment runner with a
// shared cache at full parallelism; under -race it exercises the
// cache/worker-pool interaction end to end.
func TestCacheRaceUnderWorkerPool(t *testing.T) {
	cache := &ContactCache{}
	exp := cacheExperiment()
	tbl := mustRun(t, exp, Options{Seeds: []uint64{1, 2, 3}, Workers: 8, ContactCache: cache})
	if len(tbl.Series) != 3 {
		t.Fatalf("series = %d, want 3", len(tbl.Series))
	}
	if cache.Len() != 3 {
		t.Fatalf("cache holds %d traces, want 3 (one per seed)", cache.Len())
	}
}

// TestCacheDiskPersistence: a miss is served as a view of the bytes it
// encoded, not of the file it wrote, and a second cache pointed at the
// same directory serves the trace from disk — as a view of the file —
// without re-recording, holding exactly the recorded trace.
func TestCacheDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	cfg := cacheConfig()

	first := &ContactCache{Dir: dir}
	missView, rec := traceOf(t, first, cfg)
	defer first.Close()
	if first.Recorded() != 1 {
		t.Fatalf("first cache ran %d recordings, want 1", first.Recorded())
	}
	// Traces persist into the 2-level sharded layout, not the flat dir.
	files, err := filepath.Glob(filepath.Join(dir, "??", "*.contactsb"))
	if err != nil || len(files) != 1 {
		t.Fatalf("persisted sharded files = %v (err %v), want exactly one", files, err)
	}
	if flat, _ := filepath.Glob(filepath.Join(dir, "*.contactsb")); len(flat) != 0 {
		t.Fatalf("trace persisted into the flat directory: %v", flat)
	}

	second := &ContactCache{Dir: dir}
	_, loaded := traceOf(t, second, cfg)
	if err := second.Close(); err != nil {
		t.Fatal(err)
	}
	if second.Recorded() != 0 {
		t.Fatalf("second cache re-recorded despite the disk copy")
	}
	if !reflect.DeepEqual(rec, loaded) {
		t.Fatal("disk round trip changed the recording")
	}

	// A corrupt file falls back to re-recording instead of failing.
	if err := os.WriteFile(files[0], []byte("not a recording\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	third := &ContactCache{Dir: dir}
	_, refreshed := traceOf(t, third, cfg)
	if third.Recorded() != 1 {
		t.Fatal("corrupt disk entry was not re-recorded")
	}
	if !reflect.DeepEqual(rec.Transitions, refreshed.Transitions) {
		t.Fatal("re-recorded trace differs from the original")
	}
	// The miss's view reads its own bytes: rewriting the file it
	// persisted leaves it intact.
	if !reflect.DeepEqual(missView.Materialize(), rec) {
		t.Fatal("miss view changed when its persisted file was overwritten")
	}
}

// cacheEventCounter tallies a sweep's cache events by kind and
// fingerprint; the runner serializes observer calls.
type cacheEventCounter struct {
	BaseObserver
	events map[CacheEventKind]map[string]int
}

func (c *cacheEventCounter) CacheEvent(ev CacheEvent) {
	if c.events == nil {
		c.events = make(map[CacheEventKind]map[string]int)
	}
	if c.events[ev.Kind] == nil {
		c.events[ev.Kind] = make(map[string]int)
	}
	c.events[ev.Kind][ev.Fingerprint]++
}

// TestRunnerOpensEachPersistedTraceOnce: a Runner sweep over a prewarmed
// store opens every persisted trace exactly once — the prewarm pool and
// the cells share one load per fingerprint — records nothing, and yields
// the live cells' results.
func TestRunnerOpensEachPersistedTraceOnce(t *testing.T) {
	exp := cacheExperiment()
	opt := Options{Seeds: []uint64{1, 2, 3}, Workers: 4}
	live := liveResults(t, exp, opt)

	dir := t.TempDir()
	cfgs, err := CellConfigs(exp, opt)
	if err != nil {
		t.Fatal(err)
	}
	warm := &ContactCache{Dir: dir}
	if err := warm.Prewarm(cfgs, 0); err != nil {
		t.Fatal(err)
	}
	if err := warm.Close(); err != nil {
		t.Fatal(err)
	}

	cache := &ContactCache{Dir: dir}
	defer cache.Close()
	opt.ContactCache = cache
	counter := &cacheEventCounter{}
	var mem MemorySink
	r := Runner{Options: opt, Observer: counter, Sink: &mem}
	if err := r.Run(context.Background(), exp); err != nil {
		t.Fatal(err)
	}
	requireLiveResults(t, mem.Results(), live)
	if n := len(counter.events[CacheRecorded]); n != 0 || cache.Recorded() != 0 {
		t.Fatalf("sweep over the prewarmed store recorded %d traces (%d passes)", n, cache.Recorded())
	}
	disk := counter.events[CacheHitDisk]
	if len(disk) != len(opt.Seeds) {
		t.Fatalf("disk hits for %d fingerprints, want %d (one per seed): %v", len(disk), len(opt.Seeds), disk)
	}
	for key, n := range disk {
		if n != 1 {
			t.Fatalf("fingerprint %s opened from disk %d times, want once", key, n)
		}
	}
}

// TestCachePersistErrorsAreBestEffort: an unwritable cache directory must
// not fail a lookup that already holds a valid recording — persistence is
// an optimization only.
func TestCachePersistErrorsAreBestEffort(t *testing.T) {
	dir := t.TempDir()
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	cache := &ContactCache{Dir: filepath.Join(dir, "sub")}
	src, err := cache.Source(cacheConfig())
	if err != nil {
		t.Fatalf("unwritable cache dir failed the lookup: %v", err)
	}
	if src.Meta().Transitions == 0 {
		t.Fatal("no recording despite best-effort persistence")
	}
}

// TestCacheRejectsTruncatedFiles: a persisted trace cut short is rejected
// and re-recorded, never replayed as a shorter trace — and so is a trace
// in the retired line-oriented text format, which the binary-only store no
// longer reads.
func TestCacheRejectsTruncatedFiles(t *testing.T) {
	dir := t.TempDir()
	cfg := cacheConfig()
	key := sim.ContactFingerprint(cfg)

	first := &ContactCache{Dir: dir}
	_, rec := traceOf(t, first, cfg)
	binPath := first.store().shardPath(key)

	for name, data := range map[string][]byte{
		"binary": wireless.EncodeBinary(rec),
		"text":   []byte("# vdtn contact recording\nscan 1\nduration 1800\nend 0\n"),
	} {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(binPath, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
			var warnings []string
			cache := &ContactCache{Dir: dir, Warn: func(msg string) { warnings = append(warnings, msg) }}
			_, refreshed := traceOf(t, cache, cfg)
			if cache.Recorded() != 1 {
				t.Fatal("truncated trace was not re-recorded")
			}
			if !reflect.DeepEqual(rec.Transitions, refreshed.Transitions) {
				t.Fatal("re-recorded trace differs from the original")
			}
			found := false
			for _, w := range warnings {
				found = found || strings.Contains(w, "re-recording")
			}
			if !found {
				t.Fatalf("truncation not surfaced via Warn: %v", warnings)
			}
		})
	}
}

// TestCacheSurfacesIOErrors: a read failure that is not os.IsNotExist is
// reported through the warning hook (once) instead of silently
// re-recording every run.
func TestCacheSurfacesIOErrors(t *testing.T) {
	dir := t.TempDir()
	cfg := cacheConfig()
	key := sim.ContactFingerprint(cfg)
	// A directory where the sharded trace file should be: opening it fails
	// with a real I/O error, not absence.
	if err := os.MkdirAll(filepath.Join(dir, key[:2], key+".contactsb"), 0o755); err != nil {
		t.Fatal(err)
	}

	var warnings []string
	cache := &ContactCache{Dir: dir, Warn: func(msg string) { warnings = append(warnings, msg) }}
	if _, err := cache.Source(cfg); err != nil {
		t.Fatalf("I/O error on the persisted copy failed the lookup: %v", err)
	}
	if cache.Recorded() != 1 {
		t.Fatal("unreadable persisted copy was not re-recorded")
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "reading") {
		t.Fatalf("warnings = %v, want exactly one read-error warning", warnings)
	}
}

// TestPrewarmRecordsInParallelOnce: Prewarm dedupes by fingerprint, runs
// one recording pass per distinct (scenario, seed), and leaves the sweep
// with memory hits only.
func TestPrewarmRecordsInParallelOnce(t *testing.T) {
	cache := &ContactCache{}
	var cfgs []sim.Config
	for seed := uint64(1); seed <= 3; seed++ {
		for ttl := 10; ttl <= 20; ttl += 5 { // TTL must not affect the key
			cfg := cacheConfig()
			cfg.Seed = seed
			cfg.TTL = units.Minutes(float64(ttl))
			cfgs = append(cfgs, cfg)
		}
	}
	if err := cache.Prewarm(cfgs, 4); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 3 || cache.Recorded() != 3 {
		t.Fatalf("prewarm held %d traces over %d passes, want 3 over 3", cache.Len(), cache.Recorded())
	}
	// The sweep itself now only hits.
	res, err := RunE(cacheExperiment(), Options{Seeds: []uint64{1, 2, 3}, ContactCache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if tbl := res.DefaultTable(); len(tbl.Series) != 3 {
		t.Fatalf("series = %d, want 3", len(tbl.Series))
	}
	if cache.Recorded() != 3 {
		t.Fatalf("sweep after prewarm ran %d extra recording passes", cache.Recorded()-3)
	}
}

// TestPrewarmRace hammers Prewarm from several goroutines racing each
// other and direct Source lookups; under -race this is the pre-recording
// pass's safety test, and single-flight must still hold.
func TestPrewarmRace(t *testing.T) {
	cache := &ContactCache{}
	var cfgs []sim.Config
	for seed := uint64(1); seed <= 4; seed++ {
		cfg := cacheConfig()
		cfg.Seed = seed
		cfgs = append(cfgs, cfg)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := cache.Prewarm(cfgs, 4); err != nil {
				errs <- err
			}
		}()
	}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cfg := cacheConfig()
			cfg.Seed = uint64(1 + w)
			if _, err := cache.Source(cfg); err != nil {
				errs <- err
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if cache.Len() != 4 || cache.Recorded() != 4 {
		t.Fatalf("%d traces over %d passes, want 4 over 4 (single-flight broken)", cache.Len(), cache.Recorded())
	}
}

// TestPrewarmSkipsUncacheableConfigs: plan-mode and replay cells cannot be
// prewarmed and must be skipped, not failed.
func TestPrewarmSkipsUncacheableConfigs(t *testing.T) {
	plan, err := contactplan.New([]contactplan.Contact{{A: 0, B: 1, Start: 0, End: 10}})
	if err != nil {
		t.Fatal(err)
	}
	planCfg := cacheConfig()
	planCfg.Plan = plan
	cache := &ContactCache{}
	if err := cache.Prewarm([]sim.Config{planCfg}, 2); err != nil {
		t.Fatalf("plan-mode config failed Prewarm: %v", err)
	}
	if cache.Len() != 0 {
		t.Fatal("plan-mode config was prewarmed")
	}
}

// TestRunEReportsCellCoordinates: one bad cell must not kill the process;
// RunE names its (series, x, seed) coordinates.
func TestRunEReportsCellCoordinates(t *testing.T) {
	exp := cacheExperiment()
	// x=-15 produces an invalid config (negative TTL); the other cells
	// stay healthy.
	exp.Xs = []float64{10, -15, 20}
	for name, cache := range map[string]*ContactCache{"plain": nil, "cached": {}} {
		t.Run(name, func(t *testing.T) {
			_, err := RunE(exp, Options{Seeds: []uint64{1, 2}, ContactCache: cache})
			if err == nil {
				t.Fatal("invalid cell did not fail the run")
			}
			// Every invalid cell sits at x=-15; which series/seed loses the
			// race to fail first is scheduling-dependent, but the error
			// must carry all three coordinates.
			for _, want := range []string{`series "`, "x=-15", "seed "} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not name %q", err, want)
				}
			}
		})
	}
}

// TestCellConfigs: the materialized cell list covers every (series, x,
// seed) combination in aggregation order.
func TestCellConfigs(t *testing.T) {
	exp := cacheExperiment()
	cfgs, err := CellConfigs(exp, Options{Seeds: []uint64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if want := len(exp.Scenarios) * len(exp.Xs) * 2; len(cfgs) != want {
		t.Fatalf("CellConfigs returned %d configs, want %d", len(cfgs), want)
	}
	if cfgs[0].Seed != 1 || cfgs[1].Seed != 2 {
		t.Fatal("seed ordering wrong")
	}
	if cfgs[0].TTL != units.Minutes(10) {
		t.Fatalf("x value not applied: TTL = %v", cfgs[0].TTL)
	}
}

// TestCacheRejectsPlanScenarios: plan-mode and replay cells cannot be
// cached.
func TestCacheRejectsPlanScenarios(t *testing.T) {
	plan, err := contactplan.New([]contactplan.Contact{{A: 0, B: 1, Start: 0, End: 10}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := cacheConfig()
	cfg.Plan = plan
	if _, err := (&ContactCache{}).Source(cfg); err == nil {
		t.Fatal("cache accepted a contact-plan scenario")
	}
	cfg.Plan = nil
	cfg.ReplaySource, err = wireless.NewRecordingView(wireless.EncodeBinary(&wireless.Recording{ScanInterval: cfg.ScanInterval, Duration: cfg.Duration}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&ContactCache{}).Source(cfg); err == nil {
		t.Fatal("cache accepted a replay scenario")
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
	if _, err := os.Stat(cc.store().shardPath(sim.ContactFingerprint(cfg))); !os.IsNotExist(err) {
		t.Fatalf("cancelled recording persisted a trace: stat err %v", err)
	}

	src, err := cc.sourceWith(context.Background(), cfg, nil)
	if err != nil || src == nil {
		t.Fatalf("recording after a cancelled pass: %v", err)
	}
	if cc.Recorded() != 1 {
		t.Fatalf("recorded %d passes, want exactly 1", cc.Recorded())
	}

	// A sweep cancelled before its recording tasks run reports the
	// cancellation, and the keys stay recordable afterwards.
	cfg2 := cfg
	cfg2.Seed = 4
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if err := cc.Prewarm(nil, 2); err != nil {
		t.Fatalf("empty prewarm errored: %v", err)
	}
	run := Runner{Options: Options{Seeds: []uint64{cfg2.Seed}, ContactCache: cc}}
	if err := run.Run(ctx2, cacheExperiment()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}
	if _, err := cc.Source(cfg2); err != nil {
		t.Fatalf("recording after a cancelled sweep: %v", err)
	}
}
