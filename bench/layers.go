package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"vdtn/internal/buffer"
	"vdtn/internal/bundle"
	"vdtn/internal/core"
	"vdtn/internal/experiments"
	"vdtn/internal/routing"
	"vdtn/internal/sim"
	"vdtn/internal/trace"
	"vdtn/internal/xrand"
)

// The Router methods the wrapper times, in report order.
const (
	mRefresh = iota
	mContactUp
	mContactDown
	mNextSend
	mOnSent
	mOnAbort
	mReceive
	mAddMessage
	nMethods
)

var methodNames = [nMethods]string{"Refresh", "ContactUp", "ContactDown", "NextSend", "OnSent", "OnAbort", "Receive", "AddMessage"}

// spanRec is a child span of one op: a single call, or the aggregate of
// count calls whose durations sum to dur.
type spanRec struct {
	name  string
	start time.Time
	dur   time.Duration
	count int64
}

// layerStats collects one traced op's layer measurements. Each layer is
// measured from outside, through a seam the program already has: routers
// and policies through Config.NewRouter, the event stream through
// Config.Trace, the sweep through its Observer and a sink wrapper.
type layerStats struct {
	experiments.BaseObserver

	// wall is the op's own time, as in an untraced op.
	wall float64

	// Router and policy calls run on the op's single event loop, so the
	// fields down to emitNs need no lock.
	calls        [nMethods]int64
	ns           [nMethods]time.Duration
	depth        int           // >0 while inside a router method
	emitInRouter time.Duration // trace time nested in router calls
	orderCalls   int64
	orderMsgs    int64
	orderNs      time.Duration
	victimCalls  int64
	victimNs     time.Duration
	bufLen       float64 // Σ buffer length seen at Refresh
	bufFrac      float64 // Σ buffer fill fraction seen at Refresh
	events       [trace.Expired + 1]int64
	emitNs       time.Duration

	newS, recordS, transitions   float64
	contacts, started, completed float64
	recordPasses, prewarmS       float64
	hits, lookups, diskLoads     float64
	diskS, sinkBytes             float64
	cellSecs                     []float64
	sinkNs                       time.Duration
	mu                           sync.Mutex // guards spans, and the sweep fields the runner's goroutines write
	spans                        []spanRec
}

func (st *layerStats) child(name string, start time.Time, dur time.Duration, count int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.spans = append(st.spans, spanRec{name: name, start: start, dur: dur, count: count})
}

// aggregate adds one child span per router method, policy call and trace
// kind: too many calls happen in an op to keep a span for each.
func (st *layerStats) aggregate(opStart time.Time) {
	for m := range st.calls {
		if st.calls[m] > 0 {
			st.child("routing."+methodNames[m], opStart, st.ns[m], st.calls[m])
		}
	}
	if st.orderCalls > 0 {
		st.child("core.Order", opStart, st.orderNs, st.orderCalls)
	}
	if st.victimCalls > 0 {
		st.child("core.Victim", opStart, st.victimNs, st.victimCalls)
	}
	for k, n := range st.events {
		if n > 0 {
			st.child("trace."+trace.Kind(k).String(), opStart, 0, n)
		}
	}
	if st.emitNs > 0 {
		st.child("trace.emit", opStart, st.emitNs, st.totalEvents())
	}
}

func (st *layerStats) totalEvents() int64 {
	var n int64
	for _, c := range st.events {
		n += c
	}
	return n
}

// noteResult adds a run's contact-process counts.
func (st *layerStats) noteResult(r sim.Result) {
	st.contacts += float64(r.Contacts)
	st.started += float64(r.TransfersStarted)
	st.completed += float64(r.TransfersCompleted)
}

// instrument makes cfg build timed routers reporting into st and installs
// a counting trace consumer. Only Epidemic and Spray-and-Wait are wrapped:
// MaxProp and PRoPHET type-assert their peer's router to exchange
// metadata, so a wrapper would silently switch that exchange off.
func (st *layerStats) instrument(cfg *sim.Config) error {
	var build func(core.Policy) routing.Router
	switch cfg.Protocol {
	case sim.ProtoEpidemic:
		build = func(p core.Policy) routing.Router { return routing.NewEpidemic(p) }
	case sim.ProtoSprayAndWait:
		copies := cfg.SprayCopies
		build = func(p core.Policy) routing.Router { return routing.NewSprayAndWait(p, copies, true) }
	default:
		return fmt.Errorf("cannot trace %v routers: only Epidemic and SprayAndWait are wrapped", cfg.Protocol)
	}
	if cfg.Policy != sim.PolicyLifetime || cfg.NewRouter != nil {
		return fmt.Errorf("cannot trace policy %v: only the sim-built LifetimeDESC-LifetimeASC routers are reproduced", cfg.Policy)
	}
	cfg.NewRouter = func(int, *xrand.Rand) routing.Router {
		pol := core.Lifetime()
		return &timedRouter{
			r:  build(core.Policy{Schedule: timedSchedule{pol.Schedule, st}, Drop: timedDrop{pol.Drop, st}}),
			st: st,
		}
	}
	cfg.Trace = st.emit
	return nil
}

// emit is the Config.Trace consumer: it counts events by kind.
func (st *layerStats) emit(ev trace.Event) {
	start := time.Now()
	if ev.Kind >= 0 && int(ev.Kind) < len(st.events) {
		st.events[ev.Kind]++
	}
	d := time.Since(start)
	st.emitNs += d
	if st.depth > 0 {
		st.emitInRouter += d
	}
}

// timedRouter times every Router call and samples the buffer the router
// was attached to at each Refresh.
type timedRouter struct {
	r   routing.Router
	st  *layerStats
	buf *buffer.Store
}

func (t *timedRouter) enter() time.Time {
	t.st.depth++
	return time.Now()
}

func (t *timedRouter) leave(m int, start time.Time) {
	t.st.ns[m] += time.Since(start)
	t.st.calls[m]++
	t.st.depth--
}

func (t *timedRouter) Name() string { return t.r.Name() }

func (t *timedRouter) Attach(self int, buf *buffer.Store) {
	t.buf = buf
	t.r.Attach(self, buf)
}

func (t *timedRouter) ContactUp(now float64, p routing.Peer) {
	defer t.leave(mContactUp, t.enter())
	t.r.ContactUp(now, p)
}

func (t *timedRouter) ContactDown(now float64, p routing.Peer) {
	defer t.leave(mContactDown, t.enter())
	t.r.ContactDown(now, p)
}

func (t *timedRouter) Refresh(now float64, p routing.Peer) {
	t.st.bufLen += float64(t.buf.Len())
	t.st.bufFrac += t.buf.Occupancy()
	defer t.leave(mRefresh, t.enter())
	t.r.Refresh(now, p)
}

func (t *timedRouter) NextSend(now float64, p routing.Peer) *routing.Send {
	defer t.leave(mNextSend, t.enter())
	return t.r.NextSend(now, p)
}

func (t *timedRouter) OnSent(now float64, p routing.Peer, s *routing.Send, delivered bool) {
	defer t.leave(mOnSent, t.enter())
	t.r.OnSent(now, p, s, delivered)
}

func (t *timedRouter) OnAbort(now float64, p routing.Peer, s *routing.Send) {
	defer t.leave(mOnAbort, t.enter())
	t.r.OnAbort(now, p, s)
}

func (t *timedRouter) Receive(now float64, m *bundle.Message, from routing.Peer) (bool, []*bundle.Message) {
	defer t.leave(mReceive, t.enter())
	return t.r.Receive(now, m, from)
}

func (t *timedRouter) AddMessage(now float64, m *bundle.Message) (bool, []*bundle.Message) {
	defer t.leave(mAddMessage, t.enter())
	return t.r.AddMessage(now, m)
}

// timedSchedule and timedDrop time the policy calls a router makes.
type timedSchedule struct {
	core.SchedulingPolicy
	st *layerStats
}

func (s timedSchedule) Order(now float64, msgs []*bundle.Message) {
	start := time.Now()
	s.SchedulingPolicy.Order(now, msgs)
	s.st.orderNs += time.Since(start)
	s.st.orderCalls++
	s.st.orderMsgs += int64(len(msgs))
}

type timedDrop struct {
	core.DropPolicy
	st *layerStats
}

func (d timedDrop) Victim(now float64, msgs []*bundle.Message) int {
	start := time.Now()
	v := d.DropPolicy.Victim(now, msgs)
	d.st.victimNs += time.Since(start)
	d.st.victimCalls++
	return v
}

// CellFinished implements experiments.Observer.
func (st *layerStats) CellFinished(c experiments.CellID, elapsed time.Duration, err error) {
	st.mu.Lock()
	st.cellSecs = append(st.cellSecs, elapsed.Seconds())
	st.mu.Unlock()
	st.child(fmt.Sprintf("experiments.cell %s x=%v", c.Series, c.X), time.Now().Add(-elapsed), elapsed, 1)
}

// CacheEvent implements experiments.Observer.
func (st *layerStats) CacheEvent(ev experiments.CacheEvent) {
	st.mu.Lock()
	st.lookups++
	switch ev.Kind {
	case experiments.CacheHit:
		st.hits++
	case experiments.CacheHitDisk:
		st.diskLoads++
		st.diskS += ev.Elapsed.Seconds()
	}
	st.mu.Unlock()
	if ev.Kind == experiments.CacheHitDisk {
		st.child("experiments.disk_load", time.Now().Add(-ev.Elapsed), ev.Elapsed, 1)
	}
}

// timedSink times every call into the sweep's result sink.
type timedSink struct {
	next experiments.ResultSink
	st   *layerStats
}

func (s *timedSink) timed(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	d := time.Since(start)
	s.st.mu.Lock()
	s.st.sinkNs += d
	s.st.mu.Unlock()
	s.st.child(name, start, d, 1)
	return err
}

func (s *timedSink) Start(exp experiments.Experiment, opt experiments.Options) error {
	return s.timed("experiments.sink.Start", func() error { return s.next.Start(exp, opt) })
}

func (s *timedSink) Cell(c experiments.CellResult) error {
	return s.timed("experiments.sink.Cell", func() error { return s.next.Cell(c) })
}

func (s *timedSink) Finish(runErr error) error {
	return s.timed("experiments.sink.Finish", func() error { return s.next.Finish(runErr) })
}

// runtimeSample is a reading of the Go runtime's GC counters.
type runtimeSample struct {
	cycles     uint64
	gcCPU, cpu float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{
		cycles: s[0].Value.Uint64(),
		gcCPU:  s[1].Value.Float64(),
		cpu:    s[2].Value.Float64() - s[3].Value.Float64(),
	}
}

// layerMetrics turns a traced run into the per-layer metrics. Counts and
// times are means per traced op; ratios give their base in the name's
// definition (bench/README.md). A layer that does no work in a workload
// reads 0. plain and traced are the paired op times; ops counts every op
// the traced run made, plain and traced.
func layerMetrics(sts []*layerStats, plain, traced []float64, rt0, rt1 runtimeSample, ops int) map[string]float64 {
	n := float64(len(sts))
	var (
		sum                         = map[string]float64{}
		wall, self, cells           float64
		refreshes, completed, start float64
		hits, lookups               float64
		allCells                    []float64
	)
	for _, st := range sts {
		var all time.Duration
		var calls int64
		for m := range st.ns {
			all += st.ns[m]
			calls += st.calls[m]
		}
		routerSelf := all - st.orderNs - st.victimNs - st.emitInRouter
		wall += st.wall
		hits += st.hits
		lookups += st.lookups
		self += routerSelf.Seconds()
		refreshes += float64(st.calls[mRefresh])
		completed += st.completed
		start += st.started
		for _, c := range st.cellSecs {
			cells += c
		}
		allCells = append(allCells, st.cellSecs...)

		sum["routing.self_s"] += routerSelf.Seconds()
		sum["routing.calls"] += float64(calls)
		sum["routing.refresh_calls"] += float64(st.calls[mRefresh])
		sum["routing.refresh_s"] += st.ns[mRefresh].Seconds()
		sum["routing.contactup_s"] += st.ns[mContactUp].Seconds()
		sum["routing.nextsend_s"] += st.ns[mNextSend].Seconds()
		sum["routing.receive_s"] += st.ns[mReceive].Seconds()
		sum["routing.addmessage_s"] += st.ns[mAddMessage].Seconds()
		sum["core.order_calls"] += float64(st.orderCalls)
		sum["core.order_msgs"] += float64(st.orderMsgs)
		sum["core.order_s"] += st.orderNs.Seconds()
		sum["core.victim_calls"] += float64(st.victimCalls)
		sum["core.victim_s"] += st.victimNs.Seconds()
		sum["wireless.contacts"] += st.contacts
		sum["wireless.transfers_started"] += st.started
		sum["wireless.transitions"] += st.transitions
		sum["sim.record_contacts_s"] += st.recordS
		sum["sim.new_s"] += st.newS
		if st.cellSecs == nil {
			sum["sim.other_s"] += st.wall - all.Seconds() - (st.emitNs - st.emitInRouter).Seconds()
		}
		sum["trace.events"] += float64(st.totalEvents())
		sum["trace.emit_s"] += st.emitNs.Seconds()
		sum["experiments.record_passes"] += st.recordPasses
		sum["experiments.record_s"] += st.prewarmS
		sum["experiments.disk_loads"] += st.diskLoads
		sum["experiments.disk_load_s"] += st.diskS
		sum["experiments.sink_s"] += st.sinkNs.Seconds()
		sum["experiments.sink_bytes"] += st.sinkBytes
		sum["buffer.len_at_refresh_mean"] += st.bufLen
		sum["buffer.used_frac_at_refresh_mean"] += st.bufFrac
	}
	out := map[string]float64{}
	for _, d := range perLayer {
		out[d.name] = 0
	}
	for k, v := range sum {
		out[k] = v / n
	}
	out["routing.share"] = ratio(self, wall)
	out["buffer.len_at_refresh_mean"] = ratio(sum["buffer.len_at_refresh_mean"], refreshes)
	out["buffer.used_frac_at_refresh_mean"] = ratio(sum["buffer.used_frac_at_refresh_mean"], refreshes)
	out["wireless.transfer_complete_ratio"] = ratio(completed, start)
	out["experiments.cache_hit_ratio"] = ratio(hits, lookups)
	out["experiments.cell_s_mean"] = ratio(cells, float64(len(allCells)))
	out["experiments.cell_s_p80"] = 0
	if len(allCells) > 0 {
		out["experiments.cell_s_p80"] = percentile(allCells, 80)
	}
	out["experiments.worker_busy_frac"] = 0
	if len(allCells) > 0 {
		out["experiments.worker_busy_frac"] = ratio(cells, wall*float64(runtime.GOMAXPROCS(0)))
	}
	out["runtime.gc_cycles_per_op"] = ratio(float64(rt1.cycles-rt0.cycles), float64(ops))
	out["runtime.gc_cpu_frac"] = ratio(rt1.gcCPU-rt0.gcCPU, rt1.cpu-rt0.cpu)
	out["bench.trace_overhead_frac"] = ratio(median(traced), median(plain)) - 1
	return out
}

// ratio is a/b, or 0 where the base b is 0.
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(b) {
		return 0
	}
	return a / b
}
