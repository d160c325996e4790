package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"vdtn/internal/experiments"
	"vdtn/internal/sim"
	"vdtn/internal/units"
	"vdtn/internal/wireless"
)

// sizes fixes how much work one input of each workload is. The full sizes
// are the benchmark's; the smoke sizes keep the tier-1 test to seconds.
type sizes struct {
	// name selects the pinned digest set ("full" or "smoke").
	name string
	// ops, when non-zero, replaces every workload's pass length.
	ops int
	// paperHours is the simulated horizon of a paper-* op.
	paperHours float64
	// fleetVehicles and fleetHours size a fleet-contacts op.
	fleetVehicles int
	fleetHours    float64
	// sweepScale multiplies sweep-fig8's 12 h horizon.
	sweepScale float64
	// setup_s is the median, over setupBatches batches, of a batch's time
	// per set-up round; a batch repeats the set-up for at least
	// setupBatchSeconds. A set-up of microseconds is so timed over
	// thousands of rounds, whose mean does not hinge on which of them
	// happen to fault in fresh heap pages, as a single round's time does.
	setupBatches      int
	setupBatchSeconds float64
}

var (
	fullSizes = sizes{name: "full", paperHours: 12, fleetVehicles: 500, fleetHours: 1, sweepScale: 1,
		setupBatches: 5, setupBatchSeconds: 0.02}
	smokeSizes = sizes{name: "smoke", ops: 2, paperHours: 0.5, fleetVehicles: 60, fleetHours: 0.5, sweepScale: 0.05,
		setupBatches: 1}
)

// plan is one run of one workload.
type plan struct {
	seed uint64
	// seconds bounds the timed phase: a run makes as many whole passes as
	// fit in it, and at least one.
	seconds float64
	traced  bool
	size    sizes
	// dir is a scratch directory the run owns (cache files, streams).
	dir string
	// pins maps a sim seed to its pinned op digest; nil checks none.
	pins map[string]string
}

// passOps is how many ops, and so how many distinct inputs, one pass of
// w makes. A traced run makes one pass of at most w.tracedOps ops.
func (p *plan) passOps(w workload) int {
	n := w.ops
	if p.size.ops > 0 {
		n = p.size.ops
	}
	if p.traced {
		n = min(n, w.tracedOps)
	}
	return n
}

// opResult is what one op reports: its output digest and the cost of the
// call into the simulator, measured around that call alone so that the
// benchmark's own checking stays out of the numbers.
type opResult struct {
	digest  string
	secs    float64
	allocB  uint64
	mallocs uint64
}

// opFunc runs the workload's op on input i of the pass, made from sim seed
// plan.seed+i. With st non-nil it is the traced variant and fills st with
// layer measurements.
type opFunc func(i int, st *layerStats) (opResult, error)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name, why string
	// prepare does one set-up round for n inputs and returns the op that
	// the timed phase calls.
	prepare func(p *plan, n int) (opFunc, error)
	// ops is the pass length at full size: enough distinct inputs that the
	// per-op means barely depend on the seed, and about 20 s of ops.
	ops int
	// tracedOps caps a traced run of this workload.
	tracedOps int
}

// workloads lists the benchmark's workloads in run order. BENCHMARK.json
// names the same ones, with the same reasons.
var workloads = []workload{
	{
		name:      "paper-epidemic",
		why:       "One 12 h paper run under Epidemic: flooded 100 MB buffers put routing, policy and buffer work at about half of the op.",
		prepare:   paperPrepare(sim.ProtoEpidemic),
		ops:       40,
		tracedOps: 10,
	},
	{
		name:      "paper-spraywait",
		why:       "Same contact process under binary Spray-and-Wait: short buffers, so the scheduler, scan and transfer engine dominate.",
		prepare:   paperPrepare(sim.ProtoSprayAndWait),
		ops:       70,
		tracedOps: 10,
	},
	{
		name:      "fleet-contacts",
		why:       "Contact recording for 500 vehicles over 1 h: mobility, scan and scheduler only, so routing or buffer changes must not move it.",
		prepare:   fleetPrepare,
		ops:       28,
		tracedOps: 10,
	},
	{
		name:      "sweep-fig8",
		why:       "Paper Fig. 8 sweeps through Runner with a disk contact cache and JSONL sink: the only workload with MaxProp and PRoPHET.",
		prepare:   sweepPrepare,
		ops:       6,
		tracedOps: 2,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// measure runs fn and returns its wall time and heap allocation.
func measure(fn func()) opResult {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc, mallocs := ms.TotalAlloc, ms.Mallocs
	start := time.Now()
	fn()
	secs := time.Since(start).Seconds()
	runtime.ReadMemStats(&ms)
	return opResult{secs: secs, allocB: ms.TotalAlloc - alloc, mallocs: ms.Mallocs - mallocs}
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// configs builds and validates the configs of n inputs, one per sim seed
// from p.seed on.
func configs(p *plan, n int, build func(seed uint64) sim.Config) ([]sim.Config, error) {
	cfgs := make([]sim.Config, n)
	for i := range cfgs {
		cfgs[i] = build(p.seed + uint64(i))
		if err := cfgs[i].Validate(); err != nil {
			return nil, err
		}
	}
	return cfgs, nil
}

// --- paper-epidemic and paper-spraywait -----------------------------------

func paperConfig(sz sizes, proto sim.ProtocolKind, seed uint64) sim.Config {
	cfg := sim.PaperConfig(120, proto, sim.PolicyLifetime, seed)
	cfg.Duration = units.Minutes(60 * sz.paperHours)
	return cfg
}

// paperPrepare's set-up builds the configs and nothing else: each op
// assembles its own world, map included, as a caller of sim.New does.
func paperPrepare(proto sim.ProtocolKind) func(p *plan, n int) (opFunc, error) {
	return func(p *plan, n int) (opFunc, error) {
		cfgs, err := configs(p, n, func(seed uint64) sim.Config { return paperConfig(p.size, proto, seed) })
		if err != nil {
			return nil, err
		}
		return func(i int, st *layerStats) (opResult, error) { return paperOp(cfgs[i], st) }, nil
	}
}

func paperOp(cfg sim.Config, st *layerStats) (opResult, error) {
	if st != nil {
		if err := st.instrument(&cfg); err != nil {
			return opResult{}, err
		}
	}
	var res sim.Result
	var err error
	var newStart time.Time
	var newDur time.Duration
	r := measure(func() {
		newStart = time.Now()
		var w *sim.World
		if w, err = sim.New(cfg); err != nil {
			return
		}
		newDur = time.Since(newStart)
		res = w.Run()
	})
	if err != nil {
		return opResult{}, err
	}
	if st != nil {
		st.wall = r.secs
		st.newS = newDur.Seconds()
		st.child("sim.New", newStart, newDur, 1)
		st.noteResult(res)
		// The recording pass is timed beside the op, not inside it: it
		// predicts what replaying a cached trace would save.
		start := time.Now()
		rec, rerr := sim.RecordContacts(cfg)
		if rerr != nil {
			return opResult{}, rerr
		}
		st.recordS = time.Since(start).Seconds()
		st.transitions = float64(len(rec.Transitions))
		st.child("sim.RecordContacts", start, time.Since(start), 1)
	}
	if err := checkResult(res); err != nil {
		return opResult{}, err
	}
	r.digest = resultDigest(res)
	return r, nil
}

// --- fleet-contacts --------------------------------------------------------

func fleetConfig(sz sizes, seed uint64) sim.Config {
	cfg := sim.PaperConfig(120, sim.ProtoEpidemic, sim.PolicyLifetime, seed)
	cfg.Vehicles = sz.fleetVehicles
	cfg.Duration = units.Minutes(60 * sz.fleetHours)
	return cfg
}

func fleetPrepare(p *plan, n int) (opFunc, error) {
	cfgs, err := configs(p, n, func(seed uint64) sim.Config { return fleetConfig(p.size, seed) })
	if err != nil {
		return nil, err
	}
	return func(i int, st *layerStats) (opResult, error) {
		var rec *wireless.Recording
		var err error
		start := time.Now()
		r := measure(func() { rec, err = sim.RecordContacts(cfgs[i]) })
		if err != nil {
			return opResult{}, err
		}
		if err := rec.Validate(); err != nil {
			return opResult{}, fmt.Errorf("recording invalid: %w", err)
		}
		if st != nil {
			st.wall, st.recordS = r.secs, r.secs
			st.transitions = float64(len(rec.Transitions))
			st.child("sim.RecordContacts", start, time.Since(start), 1)
		}
		r.digest = sha(wireless.EncodeBinary(rec))
		return r, nil
	}, nil
}

// --- sweep-fig8 ------------------------------------------------------------

func fig8() (experiments.Experiment, error) {
	exp, ok := experiments.ByID("fig8")
	if !ok {
		return exp, fmt.Errorf("fig8 is not in the experiment catalog")
	}
	return exp, nil
}

// sweepPrepare's set-up round records the trace of every seed the ops will
// replay into a fresh on-disk cache and closes it; each op then opens that
// directory with a new cache, so every op pays the same disk loads.
func sweepPrepare(p *plan, n int) (opFunc, error) {
	exp, err := fig8()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(p.dir, "cache-")
	if err != nil {
		return nil, err
	}
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = p.seed + uint64(i)
	}
	cfgs, err := experiments.CellConfigs(exp, experiments.Options{Seeds: seeds, Scale: p.size.sweepScale})
	if err != nil {
		return nil, err
	}
	cache := &experiments.ContactCache{Dir: dir}
	start := time.Now()
	err = cache.Prewarm(cfgs, 0)
	recordS := time.Since(start).Seconds()
	passes := cache.Recorded()
	if cerr := cache.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if passes != uint64(n) {
		return nil, fmt.Errorf("prewarm ran %d recording passes, want %d", passes, n)
	}
	cells := len(exp.Scenarios) * len(exp.Xs)
	return func(i int, st *layerStats) (opResult, error) {
		if st != nil {
			st.recordPasses, st.prewarmS = float64(passes), recordS
		}
		return sweepOp(exp, p, cache.Dir, seeds[i], cells, st)
	}, nil
}

func sweepOp(exp experiments.Experiment, p *plan, cacheDir string, seed uint64, cells int, st *layerStats) (opResult, error) {
	stream := filepath.Join(p.dir, "fig8.jsonl")
	f, err := os.Create(stream)
	if err != nil {
		return opResult{}, err
	}
	defer f.Close()
	cache := &experiments.ContactCache{Dir: cacheDir}
	var mem experiments.MemorySink
	runner := experiments.Runner{
		Options: experiments.Options{Seeds: []uint64{seed}, Scale: p.size.sweepScale, ContactCache: cache},
		Sink:    experiments.TeeSink(&mem, experiments.NewJSONLSink(f)),
	}
	if st != nil {
		runner.Observer = st
		runner.Sink = &timedSink{next: runner.Sink, st: st}
	}
	r := measure(func() { err = runner.Run(context.Background(), exp) })
	if cerr := cache.Close(); err == nil {
		err = cerr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return opResult{}, err
	}
	data, err := os.ReadFile(stream)
	if err != nil {
		return opResult{}, err
	}
	if err := checkStream(data, cells); err != nil {
		return opResult{}, err
	}
	got := mem.Results().Cells
	if len(got) != cells {
		return opResult{}, fmt.Errorf("memory sink holds %d cells, want %d", len(got), cells)
	}
	digests := make([]byte, 0, 64*(cells+1))
	for _, c := range got {
		if err := checkResult(c.Result); err != nil {
			return opResult{}, fmt.Errorf("cell %s x=%v: %w", c.Series, c.X, err)
		}
		digests = append(digests, resultDigest(c.Result)...)
	}
	if st != nil {
		st.wall = r.secs
		st.sinkBytes = float64(len(data))
		for _, c := range got {
			st.noteResult(c.Result)
		}
	}
	r.digest = sha(append(digests, sha(data)...))
	return r, nil
}
