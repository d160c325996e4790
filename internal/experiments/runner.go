package experiments

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"vdtn/internal/sim"
)

// CellID identifies one cell of a sweep in progress reports.
type CellID struct {
	// Index is the cell's position in aggregation order; Total is the
	// sweep's cell count.
	Index, Total int
	// Series names the cell's series; X is the primary axis value; Grid
	// holds the secondary axis assignments (empty for single-axis
	// sweeps); Seed is the replication seed.
	Series string
	X      float64
	Grid   []Setting
	Seed   uint64
}

// Observer receives a running sweep's lifecycle events. Implementations
// are called from the runner's worker goroutines, but never concurrently:
// the runner serializes all observer calls, so a progress printer needs
// no locking of its own. Embed BaseObserver to implement only the events
// you care about.
type Observer interface {
	// SweepStarted fires once per Runner.Run, after validation, with the
	// normalized options and the total cell count.
	SweepStarted(exp Experiment, opt Options, cells int)
	// CellStarted and CellFinished bracket each cell's simulation;
	// elapsed is the cell's wall-clock time and err its failure (nil for
	// a clean run, the context error for a cancelled one).
	CellStarted(c CellID)
	CellFinished(c CellID, elapsed time.Duration, err error)
	// CacheEvent reports the sweep's contact-cache traffic: hits, disk
	// loads, and executed recording passes with their cost.
	CacheEvent(ev CacheEvent)
	// SweepFinished fires once per Runner.Run, after the sink is
	// finished, with the sweep's total wall-clock time and outcome.
	SweepFinished(exp Experiment, elapsed time.Duration, err error)
}

// BaseObserver is a no-op Observer for embedding: implementations
// override only the events they need.
type BaseObserver struct{}

func (BaseObserver) SweepStarted(Experiment, Options, int)          {}
func (BaseObserver) CellStarted(CellID)                             {}
func (BaseObserver) CellFinished(CellID, time.Duration, error)      {}
func (BaseObserver) CacheEvent(CacheEvent)                          {}
func (BaseObserver) SweepFinished(Experiment, time.Duration, error) {}

// Runner executes sweeps: the composable successor of the fire-and-forget
// Run/RunE calls. A Runner adds three capabilities on top of the worker
// pool they shared:
//
//   - cooperative cancellation: Run takes a context; cancelling it stops
//     in-flight cells at their next event-loop checkpoint and returns
//     ctx.Err(). The sink keeps every cell that completed and was
//     delivered — always complete, valid results, never torn ones.
//   - observation: the Observer hook sees cells start and finish (with
//     timing), contact-trace recording passes, and cache hits/misses.
//   - pluggable result storage: finished cells stream to a ResultSink in
//     aggregation order instead of accumulating in an implicit in-memory
//     store. MemorySink reproduces the old behavior; JSONLSink streams
//     to disk for sweeps too large for RAM; TeeSink combines sinks.
//
// The zero value runs with default options, no observer, and no sink
// (cells are simulated and discarded — useful only for smoke tests).
// A Runner is stateless across Run calls and may be reused; one Run call
// owns its sink for the duration of the sweep.
type Runner struct {
	// Options control replication, parallelism, scale and caching, as for
	// RunE. Zero seeds/scale fall back to the experiment's spec-level
	// defaults, then {1} and 1.
	Options Options
	// Observer, when non-nil, receives lifecycle events (serialized).
	Observer Observer
	// Sink, when non-nil, receives every finished cell in aggregation
	// order, then a Finish call that flushes it.
	Sink ResultSink
	// ResumeFrom, when non-nil, is the completed prefix of an earlier
	// interrupted run of the same sweep — what ReadJSONLPrefix recovers
	// from its JSONL stream. Run validates the prefix against the sweep's
	// aggregation order, re-delivers its cells to the Sink without
	// simulating them, and runs only the remaining cells. A sink appending
	// to the original stream skips the re-delivered prefix
	// (NewJSONLSinkResume), so the finished stream is byte-identical to an
	// uninterrupted run's; a fresh sink (MemorySink) receives the full
	// sweep and renders complete results.
	ResumeFrom *SweepPrefix
}

// observed serializes observer delivery; the zero value with a nil
// observer discards events.
type observed struct {
	mu  sync.Mutex
	obs Observer
}

func (o *observed) cellStarted(c CellID) {
	if o.obs == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.obs.CellStarted(c)
}

func (o *observed) cellFinished(c CellID, elapsed time.Duration, err error) {
	if o.obs == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.obs.CellFinished(c, elapsed, err)
}

func (o *observed) cacheEvent(ev CacheEvent) {
	if o.obs == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.obs.CacheEvent(ev)
}

// cacheNote returns the cache-event hook to thread into the contact
// cache, nil when nobody listens (the cache skips event construction
// entirely then).
func (o *observed) cacheNote() func(CacheEvent) {
	if o.obs == nil {
		return nil
	}
	return o.cacheEvent
}

// delivery hands finished cells to the sink in aggregation order: workers
// complete cells out of order, so completed cells park in pending until
// the contiguous prefix reaches them. The sink therefore always observes
// a deterministic byte-stable stream, and a cancelled or failed sweep's
// sink holds a clean prefix of complete cells.
type delivery struct {
	mu      sync.Mutex
	sink    ResultSink
	exp     Experiment
	next    int
	pending map[int]sim.Result
	err     error // first sink error; poisons further delivery
	jobs    []job
}

// deliver stashes cell ji's result and drains the contiguous prefix into
// the sink. A sink error is sticky and returned to the caller so the
// sweep aborts.
func (d *delivery) deliver(ji int, r sim.Result) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		return d.err
	}
	if d.sink == nil {
		// No sink: cells are discarded, not parked — a sweep without a
		// sink must not accumulate every Result in the reorder buffer.
		return nil
	}
	if d.pending == nil {
		d.pending = make(map[int]sim.Result)
	}
	d.pending[ji] = r
	for {
		r, ok := d.pending[d.next]
		if !ok {
			return nil
		}
		delete(d.pending, d.next)
		if err := d.sink.Cell(cellResult(d.exp, d.jobs[d.next], r)); err != nil {
			d.err = err
			return err
		}
		d.next++
	}
}

// Run executes exp to completion, cancellation, or first failure.
//
// Cells run on a worker pool, each simulated under ctx (cancellation
// stops a cell between two events, never inside one). Finished cells are
// delivered to the Sink in aggregation order — series-major, then grid
// combination, then x, then seed — regardless of completion order, so
// sink output is deterministic. On cancellation or a cell failure the
// sink receives the contiguous prefix of completed cells and is then
// finished with the run's error; cells that completed beyond a gap in
// the prefix are discarded rather than delivered out of order.
//
// The returned error is nil for a complete sweep, ctx.Err() for a
// cancelled one, the first failing cell's coordinate-stamped error for a
// failed one, or the sink's error if storing a cell failed.
//
// With ResumeFrom set, the prefix cells are delivered to the sink first
// (cheap — no simulation) and the worker pool starts at the first missing
// cell; a prefix that does not match the sweep is rejected before any
// cell runs.
func (r *Runner) Run(ctx context.Context, exp Experiment) (err error) {
	start := time.Now()
	obs := &observed{obs: r.Observer}
	if err := exp.validate(); err != nil {
		return err
	}
	opt, err := r.Options.normalizedFor(exp)
	if err != nil {
		return err
	}
	jobs := cellJobs(exp, opt)
	resume := 0
	if r.ResumeFrom != nil {
		if err := r.ResumeFrom.validateFor(exp, opt, jobs); err != nil {
			return err
		}
		resume = len(r.ResumeFrom.Cells)
	}
	if obs.obs != nil {
		obs.obs.SweepStarted(exp, opt, len(jobs))
		defer func() { obs.obs.SweepFinished(exp, time.Since(start), err) }()
	}
	if r.Sink != nil {
		if err := r.Sink.Start(exp, opt); err != nil {
			return err
		}
	}
	runErr := r.deliverPrefix()
	if runErr == nil {
		runErr = r.runCells(ctx, exp, opt, jobs, obs, resume)
	}
	if r.Sink != nil {
		if ferr := r.Sink.Finish(runErr); ferr != nil && runErr == nil {
			runErr = ferr
		}
	}
	return runErr
}

// deliverPrefix replays the resumed prefix into the sink before any
// worker starts, so sinks observe the same aggregation-order stream an
// uninterrupted run delivers. A resuming JSONL sink counts these without
// re-writing them; fresh sinks store them like any other cell.
func (r *Runner) deliverPrefix() error {
	if r.ResumeFrom == nil || r.Sink == nil {
		return nil
	}
	for _, c := range r.ResumeFrom.Cells {
		if err := r.Sink.Cell(c); err != nil {
			return err
		}
	}
	return nil
}

// runCells drives the worker pool between Sink.Start and Sink.Finish,
// over the jobs from index resume on. A nil opt.ContactCache gets a
// private in-memory cache for this run: every live cell replays its
// contact trace, recorded once per distinct (scenario, seed).
//
// The pool works one task list: first one load-or-record task per
// distinct contact process the remaining cells need, in first-use order,
// then the cells. A cell whose trace is still being recorded waits behind
// that single pass (the cache's single-flight) instead of recording it
// again. A failed recording does not stop the pool: the cache memoizes
// the error, and the first cell that needs the trace reports it with the
// cell's coordinates. After the first failure (or cancellation) the sweep
// is dead either way, so the remaining tasks are drained, not run — a bad
// first cell must not cost the whole sweep's wall clock.
func (r *Runner) runCells(ctx context.Context, exp Experiment, opt Options, jobs []job, obs *observed, resume int) error {
	if opt.ContactCache == nil {
		opt.ContactCache = &ContactCache{}
		defer opt.ContactCache.Close()
	}
	// Resumed cells are already on disk and never simulate, so only the
	// remaining cells' traces are worth loading. A cell whose config
	// cannot materialize is skipped here; its task reports the error with
	// full coordinates.
	var cfgs []sim.Config
	for _, j := range jobs[resume:] {
		if cfg, err := cellConfig(exp, opt, j); err == nil {
			cfgs = append(cfgs, cfg)
		}
	}
	traces := distinctContacts(cfgs)

	sink := &delivery{sink: r.Sink, exp: exp, jobs: jobs, next: resume}
	errs := make([]error, len(jobs))
	note := obs.cacheNote()
	var failed atomic.Bool
	pool(opt.Workers, len(traces)+len(jobs)-resume, func(t int) {
		if failed.Load() || ctx.Err() != nil {
			return
		}
		if t < len(traces) {
			_, _ = opt.ContactCache.sourceWith(ctx, traces[t], note)
			return
		}
		ji := resume + t - len(traces)
		j := jobs[ji]
		id := CellID{
			Index:  ji,
			Total:  len(jobs),
			Series: exp.Scenarios[j.scenario].Name,
			X:      exp.Xs[j.xi],
			Grid:   exp.comboSettings(j.combo),
			Seed:   j.seed,
		}
		obs.cellStarted(id)
		cellStart := time.Now()
		res, err := runCell(ctx, exp, opt, j, note)
		obs.cellFinished(id, time.Since(cellStart), err)
		if err != nil {
			// Cancellation is the sweep's outcome, not the cell's
			// failure: it is reported once below as ctx.Err(), not with
			// one arbitrary cell's coordinates.
			if ctx.Err() == nil {
				errs[ji] = cellErrorf(exp, j, err)
			}
			failed.Store(true)
			return
		}
		if err := sink.deliver(ji, res); err != nil {
			failed.Store(true)
		}
	})

	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	return sink.err
}

// pool runs task(0), ..., task(n-1) on workers goroutines, handing the
// indices out in order, and returns once every task has returned.
func pool(workers, n int, task func(i int)) {
	var wg sync.WaitGroup
	var next atomic.Int64
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				task(i)
			}
		}()
	}
	wg.Wait()
}
