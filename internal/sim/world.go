// Package sim assembles the full VDTN simulation: it wires the road map,
// mobility models, radio medium, routers, traffic generator and metrics
// ledger together and runs the scenario on the discrete-event scheduler.
//
// The simulator owns all cross-node mechanics — contact lifecycle,
// transfer scheduling, delivery bookkeeping — and consults the per-node
// routers (internal/routing) for every protocol decision. A run is a pure
// function of its Config (including the seed): repeated runs produce
// identical Results.
package sim

import (
	"context"
	"fmt"

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

	genEnd float64
	ran    bool

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
		genEnd:  cfg.MessageGenEnd,
	}
	if w.genEnd == 0 {
		w.genEnd = cfg.Duration
	}
	sweep := cfg.SweepInterval
	if sweep == 0 {
		sweep = 30
	}
	w.cfg.SweepInterval = sweep
	w.trafficRng = w.src.Stream("traffic")

	w.medium = newMedium(w.sched, cfg)
	for id, mob := range mobilityModels(cfg, graph, w.src) {
		kind, capacity := Vehicle, cfg.VehicleBuffer
		if id >= cfg.Vehicles {
			kind, capacity = Relay, cfg.RelayBuffer
		}
		r := cfg.buildRouter(id, w.src.StreamN("policy", id))
		w.addNode(newNode(id, kind, mob, buffer.NewStore(capacity), r))
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
	if !cfg.live() {
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

// newMedium builds the scenario's radio medium on sched.
func newMedium(sched *event.Scheduler, cfg Config) *wireless.Medium {
	return wireless.NewMedium(sched, wireless.Config{
		Range:        cfg.Range,
		Rate:         cfg.Rate,
		ScanInterval: cfg.ScanInterval,
	})
}

// mobilityModels returns every node's mobility model, indexed by node id:
// vehicles (ids 0..Vehicles-1) walk graph, each on its own "mobility"
// stream of src, and relays (ids Vehicles..Vehicles+Relays-1) stand at
// spread-out crossroads. In plan and replay runs every node sits at the
// origin. New and RecordContacts both assemble their nodes from this, which
// is what makes a recorded trace match the live run's contact process.
func mobilityModels(cfg Config, graph *roadmap.Graph, src *xrand.Source) []mobility.Model {
	mobs := make([]mobility.Model, cfg.Vehicles+cfg.Relays)
	if !cfg.live() {
		for i := range mobs {
			mobs[i] = mobility.Stationary{}
		}
		return mobs
	}
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
	w.medium.Add(n)
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
		windows := w.cfg.Plan.Windows()
		wins := make([]wireless.ContactWindow, len(windows))
		for i, c := range windows {
			wins[i] = wireless.ContactWindow{A: c.A, B: c.B, Start: c.Start, End: c.End}
		}
		w.medium.StartPlan(wins)
	case w.cfg.ReplaySource != nil:
		w.medium.StartReplay(0, w.cfg.ReplaySource)
	default:
		w.medium.Start(0)
	}
	w.sched.Every(w.cfg.SweepInterval, w.cfg.SweepInterval, w.sweep)
	if len(w.cfg.Script) > 0 {
		for _, s := range w.cfg.Script {
			s := s
			w.sched.At(s.Time, func(now float64) { w.createScripted(now, s) })
		}
	} else {
		w.scheduleNextMessage(0)
	}
	if err := runUntil(ctx, w.sched, w.cfg.Duration); err != nil {
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

// runUntil fires sched's events up to horizon, checking ctx every
// cancelCheckStride events, and returns ctx.Err() when the run was cut at
// an event boundary. An uncancellable context skips the checkpoint polling
// entirely, so a plain Run or RecordContacts pays nothing for it.
func runUntil(ctx context.Context, sched *event.Scheduler, horizon float64) error {
	done := ctx.Done()
	if done == nil {
		sched.RunUntil(horizon)
		return nil
	}
	cancelled := sched.RunUntilCheck(horizon, cancelCheckStride, func() bool {
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
func (w *World) scheduleNextMessage(now float64) {
	gap := w.trafficRng.UniformFloat(w.cfg.MsgIntervalLo, w.cfg.MsgIntervalHi)
	t := now + gap
	if t > w.genEnd {
		return
	}
	w.sched.At(t, func(tn float64) {
		w.createMessage(tn)
		w.scheduleNextMessage(tn)
	})
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
func (w *World) ContactUp(now float64, a, b wireless.Entity) {
	na, nb := w.nodes[a.ID()], w.nodes[b.ID()]
	w.emit(trace.Event{Time: now, Kind: trace.ContactUp, A: na.id, B: nb.id})
	na.router.ContactUp(now, peerView{nb})
	nb.router.ContactUp(now, peerView{na})
	if !w.tryStart(now, na, nb) {
		w.tryStart(now, nb, na)
	}
}

// ContactDown implements wireless.ContactHandler. The medium has already
// aborted any transfer riding the pair.
func (w *World) ContactDown(now float64, a, b wireless.Entity) {
	na, nb := w.nodes[a.ID()], w.nodes[b.ID()]
	w.emit(trace.Event{Time: now, Kind: trace.ContactDown, A: na.id, B: nb.id})
	na.router.ContactDown(now, peerView{nb})
	nb.router.ContactDown(now, peerView{na})
}

// --- transfer engine ---------------------------------------------------------

// tryStart attempts to begin one transfer from -> to. It reports whether a
// transfer started.
func (w *World) tryStart(now float64, from, to *Node) bool {
	if w.medium.Busy(from.id) || w.medium.Busy(to.id) || !w.medium.Connected(from.id, to.id) {
		return false
	}
	send := from.router.NextSend(now, peerView{to})
	if send == nil {
		return false
	}
	if !w.medium.StartTransfer(from.id, to.id, send.Msg.Size) {
		// Unreachable given the guards above, but never lose the popped
		// message if the medium refuses.
		from.router.OnAbort(now, peerView{to}, send)
		return false
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
	from.router.OnAbort(now, peerView{to}, send)
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
		accepted, evicted := to.router.Receive(now, wire, peerView{from})
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
	from.router.OnSent(now, peerView{to}, send, delivered)
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
		n.router.Refresh(now, peerView{w.nodes[pid]})
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
