// Package sim assembles the full VDTN simulation: it wires the road map,
// radio medium, routers, traffic generator and metrics ledger together and
// runs the scenario on the discrete-event scheduler.
//
// The simulator owns all cross-node mechanics — contact lifecycle,
// transfer scheduling, delivery bookkeeping — and consults the per-node
// routers (internal/routing) for every protocol decision. A run is a pure
// function of its Config (including the seed): repeated runs produce
// identical Results.
//
// No routing decision feeds back into the contact process (mobility and
// the proximity scan), so a run's contacts are a pass of their own
// (contactPass) over the fields contactConfig keeps: RecordContacts
// records that pass, a replay reads a recording of it, and a live run
// executes it on a second goroutine beside the event loop, which replays
// its transitions as they arrive. The goroutine decides only when a
// transition becomes readable, never which or in what order. The pass is
// the only owner of mobility: a World's nodes are ids with buffers and
// routers, and its medium never reads a position.
package sim

import (
	"context"
	"fmt"
	"runtime/debug"

	"vdtn/internal/buffer"
	"vdtn/internal/bundle"
	"vdtn/internal/event"
	"vdtn/internal/mobility"
	"vdtn/internal/roadmap"
	"vdtn/internal/routing"
	"vdtn/internal/stats"
	"vdtn/internal/trace"
	"vdtn/internal/units"
	"vdtn/internal/wireless"
	"vdtn/internal/xrand"
)

// deliveryObserver is implemented by routers that need to learn about
// deliveries at the destination itself (MaxProp's acknowledgment origin).
type deliveryObserver interface {
	OnDelivered(now float64, m *bundle.Message)
}

// Result is the outcome of one simulation run. The JSON names are part of
// the experiment harness's machine-readable artifact schema; the embedded
// Report's fields inline alongside them.
type Result struct {
	stats.Report
	// Label identifies the scenario (protocol/policy/TTL).
	Label string `json:"label"`
	// Seed is the master seed the run used.
	Seed uint64 `json:"seed"`
	// Contacts counts contact-up events over the run.
	Contacts uint64 `json:"contacts"`
	// TransfersStarted/Completed/Aborted are radio-level transfer counts.
	TransfersStarted   uint64 `json:"transfers_started"`
	TransfersCompleted uint64 `json:"transfers_completed"`
	TransfersAborted   uint64 `json:"transfers_aborted"`
	// MeanBufferOccupancy is the network-wide mean buffer fill fraction,
	// sampled at every TTL sweep inside the measurement window.
	MeanBufferOccupancy float64 `json:"mean_buffer_occupancy"`
}

// World is an assembled scenario ready to run.
type World struct {
	cfg    Config
	sched  *event.Scheduler
	medium *wireless.Medium
	graph  *roadmap.Graph
	nodes  []*Node

	src        *xrand.Source
	trafficRng *xrand.Rand
	factory    *bundle.Factory
	ledger     stats.Ledger

	// sends holds each node's in-flight transmission, indexed by the
	// sending node's id: a radio carries one transfer at a time.
	sends []*routing.Send

	gen   event.Handle // the traffic generator's next creation
	genFn event.Func   // w.generate, bound once
	ran   bool

	// afterEvent, when set, runs before the first event and after every
	// event of RunContext. Tests set it to audit the state between
	// events; a run leaves it nil.
	afterEvent func()

	// Buffer occupancy sampling (at every sweep tick).
	occSum     float64
	occSamples int
}

// counted reports whether message m falls inside the measurement window
// (created at or after the warm-up boundary).
func (w *World) counted(m *bundle.Message) bool {
	return m.Created >= w.cfg.Warmup
}

// dropEvicted accounts and traces a batch of overflow evictions at node.
func (w *World) dropEvicted(now float64, node int, evicted []*bundle.Message) {
	for _, e := range evicted {
		if w.counted(e) {
			w.ledger.MsgDropped(1)
		}
		w.emit(trace.Event{Time: now, Kind: trace.Dropped, A: node, B: -1, Msg: e.ID})
	}
}

// New assembles a world from cfg. It returns an error for invalid
// configurations; all later failures are programming errors and panic.
func New(cfg Config) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	graph, err := scenarioMap(cfg)
	if err != nil {
		return nil, err
	}

	w := &World{
		cfg:     cfg,
		sched:   event.NewScheduler(),
		graph:   graph,
		src:     xrand.NewSource(cfg.Seed),
		factory: bundle.NewFactory(),
	}
	w.genFn = w.generate
	w.trafficRng = w.src.Stream("traffic")

	n := cfg.Vehicles + cfg.Relays
	w.medium = newMedium(w.sched, cfg, n)
	w.nodes = make([]*Node, 0, n)
	for id := range n {
		kind, capacity := Vehicle, cfg.VehicleBuffer
		if id >= cfg.Vehicles {
			kind, capacity = Relay, cfg.RelayBuffer
		}
		r := cfg.buildRouter(id, w.src.StreamN("policy", id))
		w.addNode(newNode(id, kind, buffer.NewStore(capacity), r))
	}
	w.medium.SetHandler(w)
	w.medium.SetTransferHandler(w)
	w.sends = make([]*routing.Send, len(w.nodes))
	return w, nil
}

// scenarioMap resolves and validates the road network of a live run,
// defaulting to roadmap.HelsinkiLike. Plan and replay runs never query
// positions, so their map is taken as given and never built or checked.
func scenarioMap(cfg Config) (*roadmap.Graph, error) {
	if !cfg.Live() {
		return cfg.Map, nil
	}
	graph := cfg.Map
	if graph == nil {
		graph = roadmap.HelsinkiLike()
	}
	if err := graph.Validate(); err != nil {
		return nil, fmt.Errorf("sim: scenario map invalid: %w", err)
	}
	return graph, nil
}

// newMedium builds the scenario's radio medium over n nodes on sched.
func newMedium(sched *event.Scheduler, cfg Config, n int) *wireless.Medium {
	return wireless.NewMedium(sched, wireless.Config{
		Range:        cfg.Range,
		Rate:         cfg.Rate,
		ScanInterval: cfg.ScanInterval,
	}, n)
}

// mobilityModels returns every node's mobility model, indexed by node id,
// as the position sources a contact pass's scan reads: vehicles (ids
// 0..Vehicles-1) are map walks over graph, each on its own "mobility"
// stream of src, and relays (ids Vehicles..Vehicles+Relays-1) stand at
// spread-out crossroads. Both models offer the scan's motion hint. Only
// a live configuration's contact pass builds them.
func mobilityModels(cfg Config, graph *roadmap.Graph, src *xrand.Source) []wireless.Entity {
	mobs := make([]wireless.Entity, cfg.Vehicles+cfg.Relays)
	walkCfg := mobility.MapWalkConfig{
		SpeedLoMs: cfg.SpeedLo,
		SpeedHiMs: cfg.SpeedHi,
		PauseLoS:  cfg.PauseLo,
		PauseHiS:  cfg.PauseHi,
	}
	for i := 0; i < cfg.Vehicles; i++ {
		mobs[i] = mobility.NewMapWalk(graph, src.StreamN("mobility", i), walkCfg)
	}
	if cfg.Relays > 0 {
		sites := roadmap.RelaySites(graph, cfg.Relays)
		for i := 0; i < cfg.Relays; i++ {
			mobs[cfg.Vehicles+i] = mobility.Stationary{At: graph.Vertex(sites[i])}
		}
	}
	return mobs
}

func (w *World) addNode(n *Node) {
	w.nodes = append(w.nodes, n)
	// TTL expiries are accounted (and traced) wherever they happen —
	// router decision points or the periodic sweep.
	id := n.id
	n.buf.SetExpireHook(func(now float64, dead []*bundle.Message) {
		for _, m := range dead {
			if w.counted(m) {
				w.ledger.MsgExpired(1)
			}
			w.emit(trace.Event{Time: now, Kind: trace.Expired, A: id, B: -1, Msg: m.ID})
		}
	})
}

// emit forwards a trace event to the configured consumer, if any.
func (w *World) emit(ev trace.Event) {
	if w.cfg.Trace != nil {
		w.cfg.Trace(ev)
	}
}

// NodeCount returns the number of nodes (vehicles + relays).
func (w *World) NodeCount() int { return len(w.nodes) }

// Node returns node id (0-based; vehicles first, then relays).
func (w *World) Node(id int) *Node { return w.nodes[id] }

// Graph returns the scenario road network.
func (w *World) Graph() *roadmap.Graph { return w.graph }

// Now returns the current simulation time.
func (w *World) Now() float64 { return w.sched.Now() }

// Run executes the scenario to its configured duration and returns the
// run metrics. Run may be called once per World.
func (w *World) Run() Result {
	res, err := w.RunContext(context.Background())
	if err != nil {
		// Background contexts cannot cancel, so this is unreachable.
		panic(err.Error())
	}
	return res
}

// cancelCheckStride bounds how many events fire between two cancellation
// checkpoints. The scheduler fires millions of events per simulated hour,
// so a few hundred events of cancel latency are invisible to a human while
// keeping the per-event overhead of an atomic channel poll negligible.
const cancelCheckStride = 256

// RunContext executes the scenario like Run, checking ctx between events.
// Cancellation is cooperative and deterministic: the run stops at an
// event boundary — never inside one — and returns ctx.Err() with a zero
// Result, so a caller can never observe a torn half-run Result. Every
// trace event emitted before the cut is a prefix of the uninterrupted
// run's trace (events fire in a deterministic total order). A run whose
// final event fires before the cancellation is noticed completes normally
// and returns its Result. RunContext may be called once per World; a
// cancelled World cannot be resumed.
//
// A live configuration (no Plan, no ReplaySource) runs its contact pass —
// the pass RecordContacts records — on a second goroutine, and the world's
// medium replays the pass's transitions as they arrive, so on two cores
// the scan and the routing overlap. The run's bytes are those of a replay
// of RecordContacts' trace, which are those of the scan run inline. The
// goroutine is stopped and joined before RunContext returns, and before a
// panic on the event loop leaves it; a panic inside the pass is re-raised
// on the event loop's goroutine.
func (w *World) RunContext(ctx context.Context) (Result, error) {
	if w.ran {
		panic("sim: World.Run called twice")
	}
	w.ran = true
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	switch {
	case w.cfg.Plan != nil:
		w.medium.StartPlan(w.cfg.Plan)
	case w.cfg.ReplaySource != nil:
		w.medium.StartReplay(0, w.cfg.ReplaySource)
	default:
		stream, join := w.startContactPass()
		defer join()
		w.medium.StartStreamReplay(0, stream)
	}
	w.sched.Every(sweepInterval, sweepInterval, w.sweep)
	if len(w.cfg.Script) > 0 {
		for _, s := range w.cfg.Script {
			s := s
			w.sched.At(s.Time, func(now float64) { w.createScripted(now, s) })
		}
	} else {
		w.scheduleNextMessage(0)
	}
	if err := runUntil(ctx, w.sched, w.cfg.Duration, w.afterEvent); err != nil {
		return Result{}, err
	}

	res := Result{
		Report:             w.ledger.Report(),
		Label:              w.cfg.Label(),
		Seed:               w.cfg.Seed,
		Contacts:           w.medium.ContactsSeen,
		TransfersStarted:   w.medium.TransfersStarted,
		TransfersCompleted: w.medium.TransfersCompleted,
		TransfersAborted:   w.medium.TransfersAborted,
	}
	if w.occSamples > 0 {
		res.MeanBufferOccupancy = w.occSum / float64(w.occSamples)
	}
	return res, nil
}

// CheckInvariants reports the first broken invariant of the state a
// run's trace cannot show, or nil: every node's buffer
// (buffer.Store.CheckInvariants: its byte accounting, id set, entries and
// deadline bound) and the medium's adjacency lists
// (wireless.Medium.CheckInvariants). The world's medium never scans: the
// scan state is the contact pass's, on a medium of its own. It changes
// nothing, so calling it between events leaves a run's bytes as they are.
func (w *World) CheckInvariants() error {
	for _, n := range w.nodes {
		if err := n.buf.CheckInvariants(); err != nil {
			return fmt.Errorf("sim: node %d: %w", n.id, err)
		}
	}
	if err := w.medium.CheckInvariants(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return nil
}

// startContactPass starts the world's contact pass on a goroutine of its
// own, streaming the transitions it fires into the returned stream for
// the world's medium to replay. join stops the pass if it still runs,
// waits for its goroutine to exit, and re-raises a panic the pass
// recovered that the replay did not reach.
//
// Only join cancels the pass, once the event loop has stopped reading: a
// cancellation of the run's own context cuts the event loop, never the
// stream the loop reads, so a cut run emits what the inline scan's did.
func (w *World) startContactPass() (stream *wireless.ContactStream, join func()) {
	pass := newContactPass(w.cfg, w.graph)
	ctx, cancel := context.WithCancel(context.Background())
	stream = wireless.NewContactStream(ctx.Done())
	pass.medium.StartStreaming(stream)
	exited := make(chan struct{})
	//vdtnlint:detgo joined by join before RunContext returns; it runs a pure function of the config and decides only when a transition becomes readable
	go func() {
		defer close(exited)
		defer func() {
			var fault any
			if r := recover(); r != nil {
				fault = fmt.Sprintf("sim: contact pass panicked: %v\n\n%s", r, debug.Stack())
			}
			stream.Close(fault)
		}()
		pass.run(ctx) // an error here means join cancelled the pass
	}()
	return stream, func() {
		cancel()
		<-exited
		stream.Reraise()
	}
}

// runUntil fires sched's events up to horizon, checking ctx every
// cancelCheckStride events, and returns ctx.Err() when the run was cut at
// an event boundary. An uncancellable context skips the checkpoint polling
// entirely, so a plain Run or RecordContacts pays nothing for it. A
// non-nil after runs at every checkpoint, which it makes one per event.
func runUntil(ctx context.Context, sched *event.Scheduler, horizon float64, after func()) error {
	done := ctx.Done()
	if done == nil && after == nil {
		sched.RunUntil(horizon)
		return nil
	}
	stride := uint64(cancelCheckStride)
	if after != nil {
		stride = 1
	}
	cancelled := sched.RunUntilCheck(horizon, stride, func() bool {
		if after != nil {
			after()
		}
		select {
		case <-done:
			return true
		default:
			return false
		}
	})
	if cancelled {
		return ctx.Err()
	}
	return nil
}

// sweepInterval is the period of the network-wide TTL sweep, in seconds.
const sweepInterval = 30

// sweep expires TTLs network-wide (the per-store hook accounts the deaths)
// and samples buffer occupancy.
func (w *World) sweep(now float64) {
	occ := 0.0
	for _, n := range w.nodes {
		n.buf.Expire(now)
		occ += n.buf.Occupancy()
	}
	if now >= w.cfg.Warmup {
		w.occSum += occ / float64(len(w.nodes))
		w.occSamples++
	}
}

// --- traffic generation ----------------------------------------------------

// scheduleNextMessage chains message-creation events with uniform gaps.
// The chain holds one event at a time, so it reuses one handle.
func (w *World) scheduleNextMessage(now float64) {
	gap := w.trafficRng.UniformFloat(w.cfg.MsgIntervalLo, w.cfg.MsgIntervalHi)
	t := now + gap
	if t > w.cfg.Duration {
		return
	}
	w.sched.Schedule(&w.gen, t, w.genFn)
}

// generate is the traffic generator's event: create one message, then
// schedule the next.
func (w *World) generate(now float64) {
	w.createMessage(now)
	w.scheduleNextMessage(now)
}

// createMessage generates one message between distinct random vehicles.
func (w *World) createMessage(now float64) {
	src := w.trafficRng.IntN(w.cfg.Vehicles)
	dst := src
	for dst == src {
		dst = w.trafficRng.IntN(w.cfg.Vehicles)
	}
	size := units.Bytes(w.trafficRng.UniformInt(int(w.cfg.MsgSizeLo), int(w.cfg.MsgSizeHi)))
	w.inject(now, src, dst, size)
}

// createScripted injects one Config.Script entry.
func (w *World) createScripted(now float64, s ScriptedMessage) {
	w.inject(now, s.From, s.To, s.Size)
}

// inject creates a message at src destined to dst and accounts it.
func (w *World) inject(now float64, src, dst int, size units.Bytes) {
	m := bundle.New(w.factory.NextID(), src, dst, size, now, w.cfg.TTL)

	node := w.nodes[src]
	accepted, evicted := node.router.AddMessage(now, m)
	if w.counted(m) {
		w.ledger.MsgCreated(!accepted)
	}
	w.emit(trace.Event{Time: now, Kind: trace.Created, A: src, B: dst, Msg: m.ID})
	w.dropEvicted(now, src, evicted)
	if accepted {
		// The new message may be eligible on contacts already up.
		w.refreshQueues(now, node)
		w.pump(now, node, nil)
	}
}

// --- contact lifecycle (wireless.ContactHandler) ----------------------------

// ContactUp implements wireless.ContactHandler.
func (w *World) ContactUp(now float64, a, b int) {
	na, nb := w.nodes[a], w.nodes[b]
	w.emit(trace.Event{Time: now, Kind: trace.ContactUp, A: na.id, B: nb.id})
	na.router.ContactUp(now, nb.peer)
	nb.router.ContactUp(now, na.peer)
	if !w.tryStart(now, na, nb) {
		w.tryStart(now, nb, na)
	}
}

// ContactDown implements wireless.ContactHandler. The medium has already
// aborted any transfer riding the pair.
func (w *World) ContactDown(now float64, a, b int) {
	na, nb := w.nodes[a], w.nodes[b]
	w.emit(trace.Event{Time: now, Kind: trace.ContactDown, A: na.id, B: nb.id})
	na.router.ContactDown(now, nb.peer)
	nb.router.ContactDown(now, na.peer)
}

// --- transfer engine ---------------------------------------------------------

// tryStart attempts to begin one transfer from -> to. It reports whether a
// transfer started.
func (w *World) tryStart(now float64, from, to *Node) bool {
	if w.medium.Busy(from.id) || w.medium.Busy(to.id) || !w.medium.Connected(from.id, to.id) {
		return false
	}
	send := from.router.NextSend(now, to.peer)
	if send == nil {
		return false
	}
	if !w.medium.StartTransfer(from.id, to.id, send.Msg.Size) {
		// The guards above are StartTransfer's own, and a router call
		// cannot change the medium.
		panic("sim: medium refused a transfer it had room for")
	}
	w.sends[from.id] = send
	w.emit(trace.Event{Time: now, Kind: trace.TransferStart, A: from.id, B: to.id, Msg: send.Msg.ID})
	return true
}

// takeSend returns and forgets node from's in-flight transmission.
func (w *World) takeSend(from int) *routing.Send {
	send := w.sends[from]
	w.sends[from] = nil
	return send
}

// TransferAborted implements wireless.TransferHandler.
func (w *World) TransferAborted(now float64, fromID, toID int) {
	from, to := w.nodes[fromID], w.nodes[toID]
	send := w.takeSend(fromID)
	w.emit(trace.Event{Time: now, Kind: trace.TransferAbort, A: from.id, B: to.id, Msg: send.Msg.ID})
	from.router.OnAbort(now, to.peer, send)
	if w.counted(send.Msg) {
		w.ledger.MsgAborted()
	}
	// The abort implies the contact broke; radios are free again,
	// so both ends may resume talking to other neighbours.
	w.pump(now, from, to)
}

// TransferDone implements wireless.TransferHandler: it lands a finished
// transfer — deliver or relay, notify the sender — and keeps the radios
// busy with follow-up work.
func (w *World) TransferDone(now float64, fromID, toID int) {
	from, to := w.nodes[fromID], w.nodes[toID]
	send := w.takeSend(fromID)
	wire := send.Msg.ForwardTo(to.id, now)
	wire.Copies = 1
	if send.TransferCopies > 0 {
		wire.Copies = send.TransferCopies
	}

	w.emit(trace.Event{Time: now, Kind: trace.TransferComplete, A: from.id, B: to.id, Msg: wire.ID})
	delivered := wire.To == to.id
	if delivered {
		first := to.markDelivered(wire.ID)
		if w.counted(wire) {
			w.ledger.MsgDelivered(now-wire.Created, wire.HopCount, first)
		}
		w.emit(trace.Event{Time: now, Kind: trace.Delivered, A: from.id, B: to.id, Msg: wire.ID})
		if obs, ok := to.router.(deliveryObserver); ok {
			obs.OnDelivered(now, wire)
		}
	} else {
		accepted, evicted := to.router.Receive(now, wire, from.peer)
		if w.counted(wire) {
			w.ledger.MsgRelayed(accepted)
		}
		kind := trace.RelayRejected
		if accepted {
			kind = trace.RelayAccepted
		}
		w.emit(trace.Event{Time: now, Kind: kind, A: from.id, B: to.id, Msg: wire.ID})
		w.dropEvicted(now, to.id, evicted)
		if accepted {
			// The receiver's other live contacts should see the new
			// replica without waiting for a fresh contact.
			w.refreshQueues(now, to)
		}
	}
	from.router.OnSent(now, to.peer, send, delivered)
	if kept, ok := from.buf.Get(send.Msg.ID); ok {
		kept.Forwards++ // feeds the MOFO dropping policy
	}

	// Give the receiving side the first chance to respond (alternating
	// directions approximates the ONE's fair bidirectional exchange),
	// then saturate both radios with any waiting neighbours.
	w.pump(now, to, from)
}

// refreshQueues rebuilds n's send queues towards all its live contacts.
func (w *World) refreshQueues(now float64, n *Node) {
	for _, pid := range w.medium.PeersOf(n.id) {
		n.router.Refresh(now, w.nodes[pid].peer)
	}
}

// pump starts as many transfers as the freed radios allow: first the
// reverse direction on the finishing pair, then every live contact of both
// endpoints in ascending peer order.
func (w *World) pump(now float64, first, second *Node) {
	if second != nil {
		if !w.tryStart(now, first, second) {
			w.tryStart(now, second, first)
		}
	}
	for _, n := range []*Node{first, second} {
		if n == nil {
			continue
		}
		if w.medium.Busy(n.id) {
			continue
		}
		for _, pid := range w.medium.PeersOf(n.id) {
			if w.medium.Busy(n.id) {
				break // a transfer started in a previous iteration
			}
			p := w.nodes[pid]
			if !w.tryStart(now, n, p) {
				w.tryStart(now, p, n)
			}
		}
	}
}
