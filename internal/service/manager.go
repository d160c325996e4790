package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"vdtn/internal/experiments"
)

// Config configures a Manager.
type Config struct {
	// DataDir roots the durable job store (<DataDir>/jobs/<id>/...).
	DataDir string
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
	// Progress, when non-nil, echoes each running sweep as a live
	// single-line cell counter (experiments.ProgressObserver) — the
	// daemon's -progress flag.
	Progress io.Writer
}

func (c Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// jobEntry is a job's in-memory state alongside its durable Meta: the
// event hub, the live progress counter, and — while running — the
// cancellation handle.
type jobEntry struct {
	meta       Meta
	hub        *hub
	cancel     context.CancelFunc // non-nil while running
	userCancel bool               // DELETE seen: cancellation is terminal, not a restartable interruption
	done       int                // live completed-cell count while running
}

// Manager is the sweep scheduler: submitted jobs enter a FIFO queue
// drained by one loop goroutine running one sweep at a time (each sweep
// already runs its cells on parallel workers; running several at once
// would just fight over the same cores and interleave their cache
// recordings).
//
// Durability contract: every state transition snapshots meta.json
// atomically, and the results stream is the same crash-tolerant JSONL
// the CLI writes. Open re-admits any job found queued or running — the
// unfinished work of a previous process, whether it exited cleanly
// (Close) or died hard — and the runner picks the stream up through
// ReadJSONLPrefix/ResumeFrom, so the finished artifact is byte-identical
// to an uninterrupted run's no matter how many times the daemon died.
type Manager struct {
	store *Store
	cfg   Config

	ctx      context.Context
	cancel   context.CancelFunc
	wake     chan struct{} // buffered(1): submit signal to the loop
	loopDone chan struct{}

	mu    sync.Mutex
	jobs  map[string]*jobEntry
	queue []string // queued job IDs, FIFO
}

// Open opens the job store under cfg.DataDir, re-admits unfinished jobs
// (in job-ID order — admission order), and starts the scheduler.
func Open(cfg Config) (*Manager, error) {
	store, err := OpenStore(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	metas, err := store.List()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		store:    store,
		cfg:      cfg,
		ctx:      ctx,
		cancel:   cancel,
		wake:     make(chan struct{}, 1),
		loopDone: make(chan struct{}),
		jobs:     make(map[string]*jobEntry),
	}
	for _, meta := range metas {
		e := &jobEntry{meta: meta, hub: newHub(meta.ID)}
		if meta.State.Terminal() {
			// Nothing will publish to a terminal job's hub again.
			e.hub.close()
			m.jobs[meta.ID] = e
			continue
		}
		// Unfinished work from the previous process: running means it was
		// interrupted mid-sweep (count the restart), queued means it never
		// started. Either way it queues again, and the run itself resumes
		// from whatever prefix of results.jsonl survived.
		if meta.State == StateRunning {
			e.meta.Restarts++
		}
		e.meta.State = StateQueued
		e.meta.Error = ""
		if err := store.WriteMeta(e.meta); err != nil {
			cancel()
			return nil, err
		}
		m.jobs[meta.ID] = e
		m.queue = append(m.queue, meta.ID)
		cfg.logf("service: re-admitted job %s (%s, restarts %d)", meta.ID, meta.Experiment, e.meta.Restarts)
	}
	// The scheduler: one goroutine, owned by this Manager, exits on
	// Close. It serializes sweep execution — determinism within a sweep
	// is the Runner's contract, this goroutine only orders whole jobs.
	go m.loop() //vdtnlint:detgo single scheduler goroutine joined by Close via loopDone; job order is FIFO by queue, not goroutine timing
	return m, nil
}

// Close stops the scheduler: the running sweep (if any) is cancelled
// cooperatively and left in state "running" on disk, so the next Open
// re-admits and resumes it. Close blocks until the loop goroutine has
// exited; the Manager is unusable afterwards.
func (m *Manager) Close() {
	m.cancel()
	<-m.loopDone
	// End any event streams still attached to non-terminal jobs so their
	// readers unblock.
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.jobs {
		e.hub.close()
	}
}

// Submit validates and admits a new job: the spec must decode
// (experiments.LoadSpec) and the metric override, if any, must name a
// known metric. The spec bytes are persisted verbatim — they are what
// every (re-)admission re-decodes, so the job's cell grid is stable
// across restarts.
func (m *Manager) Submit(spec []byte, opts Options) (Meta, error) {
	exp, err := experiments.LoadSpec(spec)
	if err != nil {
		return Meta{}, err
	}
	exp, err = applyMetric(exp, opts.Metric)
	if err != nil {
		return Meta{}, err
	}
	seeds := opts.Seeds
	if len(seeds) == 0 {
		seeds = exp.Seeds
	}
	nseeds := len(seeds)
	if nseeds == 0 {
		nseeds = 1
	}
	meta := Meta{
		State:       StateQueued,
		Experiment:  exp.ID,
		Title:       exp.Title,
		Options:     opts,
		Cells:       len(exp.Scenarios) * exp.Combos() * len(exp.Xs) * nseeds,
		SubmittedAt: time.Now().UTC(),
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	id, err := m.store.NextID()
	if err != nil {
		return Meta{}, err
	}
	meta.ID = id
	if err := m.store.Create(meta, spec); err != nil {
		return Meta{}, err
	}
	m.jobs[id] = &jobEntry{meta: meta, hub: newHub(id)}
	m.queue = append(m.queue, id)
	select {
	case m.wake <- struct{}{}:
	default:
	}
	m.cfg.logf("service: job %s queued (%s, %d cells)", id, exp.ID, meta.Cells)
	return meta, nil
}

// applyMetric applies a metric override to the experiment, validating it
// against the known metric list. The override becomes part of the
// stream's header, so it is persisted with the job and re-applied
// identically on every admission.
func applyMetric(exp experiments.Experiment, metric string) (experiments.Experiment, error) {
	if metric == "" {
		return exp, nil
	}
	for _, known := range experiments.Metrics() {
		if string(known) == metric {
			exp.Metric = known
			return exp, nil
		}
	}
	return exp, fmt.Errorf("service: unknown metric %q (known: %v)", metric, experiments.Metrics())
}

// Job returns one job's Meta, with live progress folded in for running
// jobs.
func (m *Manager) Job(id string) (Meta, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.jobs[id]
	if !ok {
		return Meta{}, fmt.Errorf("%w: %s", ErrNoJob, id)
	}
	return m.liveMeta(e), nil
}

// Jobs returns every job's Meta in admission (ID) order.
func (m *Manager) Jobs() []Meta {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]string, 0, len(m.jobs))
	for id := range m.jobs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	metas := make([]Meta, 0, len(ids))
	for _, id := range ids {
		metas = append(metas, m.liveMeta(m.jobs[id]))
	}
	return metas
}

// liveMeta snapshots a job's Meta, merging the in-memory progress of a
// running sweep. Callers hold m.mu.
func (m *Manager) liveMeta(e *jobEntry) Meta {
	meta := e.meta
	if meta.State == StateRunning {
		meta.Done = e.done
		if meta.StartedAt != nil {
			meta.ElapsedSec = time.Since(*meta.StartedAt).Seconds()
		}
	}
	return meta
}

// ResultsPath is the job's results.jsonl path (for serving the
// artifact); the file exists once the job has started running.
func (m *Manager) ResultsPath(id string) string { return m.store.ResultsPath(id) }

// Cancel cancels a job. A queued job goes terminal immediately; a
// running one is cancelled cooperatively through its context — in-flight
// cells stop at their next event-loop checkpoint, the completed prefix
// of its stream stays valid, and the job lands in state "cancelled"
// (terminal: a restart will not re-admit it). Cancelling a terminal job
// is a no-op. The returned Meta is the state after the request took
// effect — for a running job that is still "running": the sweep winds
// down asynchronously.
func (m *Manager) Cancel(id string) (Meta, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.jobs[id]
	if !ok {
		return Meta{}, fmt.Errorf("%w: %s", ErrNoJob, id)
	}
	switch {
	case e.meta.State.Terminal():
		// Idempotent: already finished.
	case e.meta.State == StateQueued:
		for i, qid := range m.queue {
			if qid == id {
				m.queue = append(m.queue[:i], m.queue[i+1:]...)
				break
			}
		}
		now := time.Now().UTC()
		e.meta.State = StateCancelled
		e.meta.Error = "cancelled by client"
		e.meta.FinishedAt = &now
		if err := m.store.WriteMeta(e.meta); err != nil {
			return Meta{}, err
		}
		e.hub.publish(Event{Type: "state", State: StateCancelled})
		e.hub.close()
		m.cfg.logf("service: job %s cancelled while queued", id)
	case e.cancel != nil:
		e.userCancel = true
		e.cancel()
		m.cfg.logf("service: job %s cancellation requested", id)
	}
	return m.liveMeta(e), nil
}

// SubscribeEvents attaches a live event-stream reader to the job. For a
// terminal job there is nothing left to stream: the channel is nil and
// the returned Meta is the final state. Otherwise the caller must invoke
// the cancel function when done reading; the channel closes when the job
// reaches a terminal state or the manager shuts down.
func (m *Manager) SubscribeEvents(id string) (<-chan Event, func(), Meta, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.jobs[id]
	if !ok {
		return nil, nil, Meta{}, fmt.Errorf("%w: %s", ErrNoJob, id)
	}
	meta := m.liveMeta(e)
	if meta.State.Terminal() {
		return nil, nil, meta, nil
	}
	sub := e.hub.subscribe()
	if sub == nil {
		return nil, nil, meta, nil
	}
	return sub.ch, func() { e.hub.unsubscribe(sub) }, meta, nil
}

// loop is the scheduler goroutine: it drains the FIFO queue one job at
// a time until Close.
func (m *Manager) loop() {
	defer close(m.loopDone)
	for {
		if m.ctx.Err() != nil {
			return
		}
		id, ok := m.nextJob()
		if !ok {
			select {
			case <-m.ctx.Done():
				return
			case <-m.wake:
			}
			continue
		}
		m.runJob(id)
	}
}

// nextJob pops the queue head.
func (m *Manager) nextJob() (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.queue) == 0 {
		return "", false
	}
	id := m.queue[0]
	m.queue = m.queue[1:]
	return id, true
}

// runJob executes one job to a terminal state — or to daemon shutdown,
// which deliberately leaves the job's durable state "running" so the
// next Open re-admits and resumes it.
func (m *Manager) runJob(id string) {
	m.mu.Lock()
	e := m.jobs[id]
	jobCtx, cancel := context.WithCancel(m.ctx)
	e.cancel = cancel
	e.done = 0
	now := time.Now().UTC()
	e.meta.State = StateRunning
	e.meta.StartedAt = &now
	e.meta.FinishedAt = nil
	meta := e.meta
	m.mu.Unlock()
	defer cancel()

	start := time.Now()
	var err error
	if werr := m.store.WriteMeta(meta); werr != nil {
		err = werr
	} else {
		e.hub.publish(Event{Type: "state", State: StateRunning})
		m.cfg.logf("service: job %s running (%s)", id, meta.Experiment)
		err = m.executeSweep(jobCtx, e, meta)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	e.cancel = nil
	interrupted := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	if interrupted && !e.userCancel && m.ctx.Err() != nil {
		// Daemon shutdown, not a client cancel: the job is unfinished
		// work. Its durable state stays "running", which is exactly what
		// the next Open re-admits; only the live streams end.
		e.hub.close()
		m.cfg.logf("service: job %s interrupted by shutdown; will resume on restart", id)
		return
	}
	fin := time.Now().UTC()
	e.meta.FinishedAt = &fin
	e.meta.ElapsedSec = time.Since(start).Seconds()
	e.meta.Done = e.done
	switch {
	case err == nil:
		e.meta.State = StateDone
		e.meta.Done = e.meta.Cells
	case interrupted && e.userCancel:
		e.meta.State = StateCancelled
		e.meta.Error = "cancelled by client"
	default:
		e.meta.State = StateFailed
		e.meta.Error = err.Error()
	}
	if werr := m.store.WriteMeta(e.meta); werr != nil {
		m.cfg.logf("service: job %s: writing final meta: %v", id, werr)
	}
	e.hub.publish(Event{Type: "state", State: e.meta.State, Error: e.meta.Error})
	e.hub.close()
	m.cfg.logf("service: job %s %s (%d/%d cells)", id, e.meta.State, e.meta.Done, e.meta.Cells)
}

// executeSweep runs the job's sweep through the Runner, resuming from
// whatever complete-cell prefix of results.jsonl a previous attempt left
// behind. The stream handling mirrors cmd/experiments -out-jsonl -resume
// exactly — both drive the same JSONLSink — which is what makes the
// daemon's artifact byte-identical to the CLI's for the same spec.
func (m *Manager) executeSweep(ctx context.Context, e *jobEntry, meta Meta) error {
	spec, err := m.store.ReadSpec(meta.ID)
	if err != nil {
		return err
	}
	exp, err := experiments.LoadSpec(spec)
	if err != nil {
		return err
	}
	exp, err = applyMetric(exp, meta.Options.Metric)
	if err != nil {
		return err
	}
	opt := meta.Options.runOptions()
	if meta.Options.CacheDir != "" {
		// Jobs naming the same directory share recorded traces through
		// the store's cross-process locking; Close releases the mapped
		// traces even on failure or interruption.
		cc := &experiments.ContactCache{
			Dir:  meta.Options.CacheDir,
			Warn: func(msg string) { m.cfg.logf("service: job %s: %s", meta.ID, msg) },
		}
		opt.ContactCache = cc
		defer cc.Close()
	}

	path := m.store.ResultsPath(meta.ID)
	prefix, f, err := experiments.OpenResume(path, exp, opt)
	if err != nil {
		return err
	}
	resumed := 0
	if prefix != nil {
		resumed = len(prefix.Cells)
	}
	m.mu.Lock()
	e.meta.Resumed = resumed
	e.done = resumed
	m.mu.Unlock()
	if f == nil {
		// Every cell and the footer are already on disk — a crash after
		// the final flush but before the meta transition. The artifact is
		// finished; rewriting it could only risk the bytes.
		return nil
	}

	obs := []experiments.Observer{&observerAdapter{
		hub:  e.hub,
		done: resumed,
		progress: func(done int) {
			m.mu.Lock()
			e.done = done
			m.mu.Unlock()
		},
	}}
	if m.cfg.Progress != nil {
		obs = append(obs, &experiments.ProgressObserver{W: m.cfg.Progress, Resumed: resumed})
	}

	runner := experiments.Runner{
		Options:    opt,
		Observer:   multiObserver(obs),
		Sink:       experiments.NewJSONLSinkResume(f, prefix),
		ResumeFrom: prefix,
	}
	runErr := runner.Run(ctx, exp)
	if cerr := f.Close(); cerr != nil && runErr == nil {
		runErr = cerr
	}
	return runErr
}

// multiObserver fans the runner's (already serialized) observer calls
// out to several observers in order.
type multiObserver []experiments.Observer

func (mo multiObserver) SweepStarted(exp experiments.Experiment, opt experiments.Options, cells int) {
	for _, o := range mo {
		o.SweepStarted(exp, opt, cells)
	}
}

func (mo multiObserver) CellStarted(c experiments.CellID) {
	for _, o := range mo {
		o.CellStarted(c)
	}
}

func (mo multiObserver) CellFinished(c experiments.CellID, elapsed time.Duration, err error) {
	for _, o := range mo {
		o.CellFinished(c, elapsed, err)
	}
}

func (mo multiObserver) CacheEvent(ev experiments.CacheEvent) {
	for _, o := range mo {
		o.CacheEvent(ev)
	}
}

func (mo multiObserver) SweepFinished(exp experiments.Experiment, elapsed time.Duration, err error) {
	for _, o := range mo {
		o.SweepFinished(exp, elapsed, err)
	}
}
