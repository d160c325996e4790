// Package wireless models the radio layer of the VDTN: disk-range contact
// detection between moving nodes and finite-rate message transfers over
// established contacts.
//
// The model is the one the paper's evaluation actually ran on (the ONE
// simulator's broadcast interface): two nodes are in contact iff their
// distance is at most the transmission range (30 m for the paper's IEEE
// 802.11b setup); a contact carries a fixed net data rate (6 Mbit/s); a
// node takes part in at most one transfer at a time; and a transfer whose
// contact breaks mid-flight is aborted and the partial data discarded.
//
// Contacts are detected by a periodic proximity scan (default every
// simulated second — the ONE's granularity class) over a uniform spatial
// grid with cell size equal to the radio range, kept in a wrap-around
// table whose size depends on the node count alone. The scan reads one
// position source per node (Entity), handed to Start; the medium itself
// knows its nodes only by id. The scan is incremental: positions and grid
// cells persist across ticks, and each entity has a wake time from its
// motion hint (see MotionHint) before which it is not re-queried — a
// parked relay or a paused walker until its pause ends, and, in a sparse
// enough fleet, a driving vehicle with no contact until another entity
// could come within range of it. Only pairs with a moving end are
// examined, against the adjacency lists below, and a steady-state tick
// allocates nothing. A tick costs one wake check per node plus, per
// mover, its 3x3 grid neighbourhood and its peer list: not O(nodes²), and
// independent of the contacts between nodes that stood still.
//
// Every contact transition — scanned, planned or replayed — updates a
// sorted per-node adjacency list. Those lists are the medium's one contact
// set: PeersOf returns a node's list, and Connected binary-searches it.
//
// A medium's nodes are fixed when it is built: NewMedium takes their
// count n, and the nodes are 0..n-1, so a node's id is its index into
// every per-node table.
package wireless

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"vdtn/internal/contactplan"
	"vdtn/internal/event"
	"vdtn/internal/geo"
	"vdtn/internal/units"
)

// Entity is the position source the live scan reads for one node. The
// scan takes one per node (Start), and an entity's index in that slice is
// its node's id. The scan queries positions with non-decreasing
// timestamps.
type Entity interface {
	Position(now float64) geo.Point
}

// ContactHandler receives contact lifecycle notifications. ContactUp and
// ContactDown are invoked once per (unordered) pair transition, with the
// pair's node ids a < b.
type ContactHandler interface {
	ContactUp(now float64, a, b int)
	ContactDown(now float64, a, b int)
}

// TransferHandler receives transfer outcomes: TransferDone when a
// transfer's last byte lands, TransferAborted when its contact breaks
// first. Both run with the endpoints' radios already free, so the handler
// may start new transfers, and name the transfer by its sending and
// receiving node.
type TransferHandler interface {
	TransferDone(now float64, from, to int)
	TransferAborted(now float64, from, to int)
}

// Config parameterizes the medium.
type Config struct {
	// Range is the radio transmission range in metres (> 0).
	Range float64
	// Rate is the contact data rate (> 0).
	Rate units.BitRate
	// ScanInterval is the proximity-scan period in seconds (> 0).
	ScanInterval float64
}

// Validate reports the first invalid field, if any.
func (c Config) Validate() error {
	switch {
	case c.Range <= 0:
		return fmt.Errorf("wireless: non-positive range %v", c.Range)
	case c.Rate <= 0:
		return fmt.Errorf("wireless: non-positive rate %v", float64(c.Rate))
	case c.ScanInterval <= 0:
		return fmt.Errorf("wireless: non-positive scan interval %v", c.ScanInterval)
	}
	return nil
}

// transfer is an in-flight message transfer between two connected nodes.
// Records are reused: a finished one goes back on the medium's free list,
// keeping its scheduler handle and its bound completion method, so
// starting a transfer allocates nothing once the list holds a record. A
// record returns to the list only after the outcome handler returns, so a
// transfer the handler starts never takes over the record being reported.
type transfer struct {
	m        *Medium
	from, to int
	handle   event.Handle
	fire     event.Func // complete, bound once per record
}

type pairKey [2]int

func key(a, b int) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{a, b}
}

// Medium owns contact state and in-flight transfers. Its nodes are
// 0..n-1, fixed by NewMedium, and every per-node slice below is indexed by
// node id. Contacts come from one of four sources, chosen once: the live
// proximity scan over position sources (Start), a contact plan
// (StartPlan), a recorded trace (StartReplay) or a contact pass's stream
// (StartStreamReplay). The zero value is not usable; use NewMedium.
type Medium struct {
	sched   *event.Scheduler
	cfg     Config
	handler ContactHandler
	xfers   TransferHandler

	adj  [][]int     // sorted peer ids: the contact set
	busy []*transfer // the node's in-flight transfer, nil when idle
	free []*transfer // finished records, reused by StartTransfer

	sc      scanState // live-scan working set, reused across ticks
	started bool      // Start, StartPlan, StartReplay or StartStreamReplay has run

	tap        transitionTap // StartRecording's or StartStreaming's; nil when neither
	replay     binCursor     // the replay's position in its view or stream
	replayNext Transition
	replayHas  bool

	// Counters for tests and reports.
	ContactsSeen       uint64 // ContactUp events
	TransfersStarted   uint64
	TransfersCompleted uint64
	TransfersAborted   uint64
}

// NewMedium returns a medium over the nodes 0..n-1, scheduling on sched.
// Panics on invalid config.
func NewMedium(sched *event.Scheduler, cfg Config, n int) *Medium {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	return &Medium{sched: sched, cfg: cfg, adj: make([][]int, n), busy: make([]*transfer, n)}
}

// SetHandler installs the contact lifecycle handler. Must be called before
// Start.
func (m *Medium) SetHandler(h ContactHandler) { m.handler = h }

// SetTransferHandler installs the handler told of every transfer's
// outcome. Must be called before the first StartTransfer.
func (m *Medium) SetTransferHandler(h TransferHandler) { m.xfers = h }

// Start begins periodic proximity scanning at time `from` over nodes,
// one position source per node in id order: nodes[i] is where node i is.
// The set is fixed for the run. A count other than the medium's panics as
// a scenario-assembly bug. Start, StartPlan, StartReplay and
// StartStreamReplay are mutually exclusive.
func (m *Medium) Start(from float64, nodes []Entity) {
	if m.started {
		panic("wireless: Start called twice")
	}
	if len(nodes) != len(m.adj) {
		panic(fmt.Sprintf("wireless: %d position sources for %d nodes", len(nodes), len(m.adj)))
	}
	m.started = true
	m.initScanState(nodes)
	m.sched.Every(from, m.cfg.ScanInterval, m.scan)
}

// planEvent is one half of a contact window: a raise at its start or a
// drop at its end.
type planEvent struct {
	t  float64
	up bool
	k  pairKey
}

// StartPlan drives contacts from an explicit schedule instead of proximity
// scanning: each of the plan's windows raises the contact at Start and
// breaks it (aborting any transfer riding it) at End. No position is read
// in this mode. The plan is validated, and it has merged each pair's
// overlapping and touching windows, so every transition flips its pair's
// state; its windows must reference the medium's nodes, and StartPlan
// panics on unknown ids. Start and StartPlan are mutually exclusive.
//
// Transitions that fall on the same instant honor the scan's ordering
// contract: all downs fire first (freeing the endpoints' radios), then
// all ups, each ascending by node pair. One scheduler event is dispatched
// per distinct instant.
func (m *Medium) StartPlan(plan *contactplan.Plan) {
	if m.started {
		panic("wireless: StartPlan after Start")
	}
	m.started = true
	windows := plan.Windows()
	events := make([]planEvent, 0, 2*len(windows))
	for _, win := range windows {
		if !m.has(win.A) || !m.has(win.B) {
			panic(fmt.Sprintf("wireless: plan window (%d,%d) references an unknown node", win.A, win.B))
		}
		k := key(win.A, win.B)
		events = append(events,
			planEvent{t: win.Start, up: true, k: k},
			planEvent{t: win.End, up: false, k: k})
	}
	slices.SortFunc(events, func(a, b planEvent) int {
		if a.t != b.t {
			return cmp.Compare(a.t, b.t)
		}
		if a.up != b.up {
			if a.up {
				return 1 // downs before ups within an instant
			}
			return -1
		}
		return comparePairs(a.k, b.k)
	})
	for start := 0; start < len(events); {
		end := start
		for end < len(events) && events[end].t == events[start].t {
			end++
		}
		batch := events[start:end]
		m.sched.At(batch[0].t, func(now float64) {
			for _, ev := range batch {
				if ev.up {
					m.raise(now, ev.k)
				} else {
					m.drop(now, ev.k)
				}
			}
		})
		start = end
	}
}

// transitionTap receives every contact transition a medium fires, in
// firing order.
type transitionTap interface {
	add(tr Transition)
}

// StartRecording taps every subsequent contact transition until
// TakeRecording collects them into memory: the collection a recording
// pass (sim.RecordContacts) keeps. Install the tap before Start (or
// StartPlan / StartReplay); StartStreaming is the tap that hands the
// transitions to another medium instead. A medium holds one tap.
// Recording.Windows pairs the collected transitions back into
// contactplan.Contact windows. A trace recorded from a scan- or
// replay-driven run drives a bit-identical re-run via StartReplay; a trace
// recorded from StartPlan may hold off-tick transition times, which replay
// quantizes to the next scan tick.
func (m *Medium) StartRecording() {
	m.setTap(&recordingTap{})
}

// TakeRecording removes the tap StartRecording installed and returns the
// transitions it collected as a Recording stamped with the medium's scan
// interval and the given duration.
func (m *Medium) TakeRecording(duration float64) *Recording {
	rt, ok := m.tap.(*recordingTap)
	if !ok {
		panic("wireless: TakeRecording without StartRecording")
	}
	m.tap = nil
	return &Recording{ScanInterval: m.cfg.ScanInterval, Duration: duration, Transitions: rt.take()}
}

// StartStreaming taps every subsequent contact transition into s, encoded
// as they fire, for a medium on another goroutine to replay
// (StartStreamReplay): the live run's contact pass (sim.World.RunContext).
// Install the tap before Start, and Close s once the medium's scheduler
// has run. The encoding is the binary codec's transition stream, so the
// replaying medium decodes it with the cursor a RecordingView replay uses.
func (m *Medium) StartStreaming(s *ContactStream) {
	m.setTap(s)
}

func (m *Medium) setTap(t transitionTap) {
	if m.started {
		panic("wireless: recording tap installed after Start")
	}
	m.tap = t
}

// StartReplay drives contacts from a recorded transition trace instead of
// proximity scanning. It re-runs the recording through the same periodic
// tick loop the live scan uses — each tick applies the recorded transitions
// due at or before it, downs and ups in recorded order — so a replayed run
// schedules exactly the same events in exactly the same order as the live
// run that produced the recording: results are bit-identical. No position
// is read. A live run replays its own contact pass the same way, through
// StartStreamReplay: same tick loop, same cursor.
//
// v is a validated view; the medium takes its own cursor over it, so any
// number of replaying media may share one view, and a decode failure
// (bytes changed under a NewRecordingView view) panics. The view's scan
// interval must equal the medium's, and its MaxNode must be one of the
// medium's nodes; either violation panics here, as a scenario-assembly bug. Start,
// StartPlan, StartReplay and StartStreamReplay are mutually exclusive.
func (m *Medium) StartReplay(from float64, v *RecordingView) {
	if m.started {
		panic("wireless: StartReplay after Start")
	}
	if scan := v.meta.ScanInterval; scan != m.cfg.ScanInterval {
		panic(fmt.Sprintf("wireless: recording scan interval %v, medium %v",
			scan, m.cfg.ScanInterval))
	}
	if n := v.maxNode; n >= len(m.adj) {
		panic(fmt.Sprintf("wireless: recording references unknown node %d", n))
	}
	m.startReplay(from, v.cursor())
}

// StartStreamReplay drives contacts from the transitions a contact pass
// streams into s (StartStreaming on the pass's medium), exactly as
// StartReplay drives them from a view: the same tick loop and the same
// cursor, which refills from s's next chunk when one runs dry and blocks
// until the pass has filled it. The pass is the proximity scan of this
// medium's own scenario — same nodes, same scan interval — so its stream
// skips a view's open-time checks. If the pass panicked, the replay
// re-raises its panic where the stream ends. Start, StartPlan, StartReplay
// and StartStreamReplay are mutually exclusive.
func (m *Medium) StartStreamReplay(from float64, s *ContactStream) {
	if m.started {
		panic("wireless: StartStreamReplay after Start")
	}
	m.startReplay(from, binCursor{src: s})
}

func (m *Medium) startReplay(from float64, c binCursor) {
	m.replay = c
	m.replayNext, m.replayHas = m.replay.mustNext()
	m.started = true
	m.sched.Every(from, m.cfg.ScanInterval, m.replayTick)
}

// replayTick applies the recorded transitions due at this scan tick. A
// recording captured from a live scan holds only tick-aligned timestamps,
// so each transition fires on the exact tick it was recorded at; off-tick
// timestamps (hand-edited traces) apply at the first tick at or after them.
func (m *Medium) replayTick(now float64) {
	for m.replayHas && m.replayNext.Time <= now {
		tr := m.replayNext
		m.replayNext, m.replayHas = m.replay.mustNext()
		k := key(tr.A, tr.B)
		switch {
		case tr.Up && !m.Connected(k[0], k[1]):
			m.raise(now, k)
		case !tr.Up && m.Connected(k[0], k[1]):
			m.drop(now, k)
		}
	}
}

// has reports whether id is one of the medium's nodes.
func (m *Medium) has(id int) bool { return uint(id) < uint(len(m.adj)) }

// Connected reports whether nodes a and b are currently in contact.
func (m *Medium) Connected(a, b int) bool {
	if !m.has(a) {
		return false
	}
	_, found := slices.BinarySearch(m.adj[a], b)
	return found
}

// Busy reports whether node id is currently part of a transfer.
func (m *Medium) Busy(id int) bool { return m.busy[id] != nil }

// Rate returns the configured contact data rate.
func (m *Medium) Rate() units.BitRate { return m.cfg.Rate }

// PeersOf returns the ids currently in contact with node id, in ascending
// order. The slice is the medium's own adjacency list for the node: it is
// valid until the next contact transition and must not be modified or
// retained by the caller.
func (m *Medium) PeersOf(id int) []int {
	if !m.has(id) {
		return nil
	}
	return m.adj[id]
}

// insertPeer adds v to the sorted peer slice s, keeping it sorted.
func insertPeer(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	if i < len(s) && s[i] == v {
		return s // already present (unreachable: every raise is of an absent pair)
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// removePeer deletes v from the sorted peer slice s, keeping capacity.
func removePeer(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	if i >= len(s) || s[i] != v {
		return s // not present (unreachable: every drop is of a present pair)
	}
	copy(s[i:], s[i+1:])
	return s[:len(s)-1]
}

// raise fires a contact-up transition: state, adjacency, counters,
// recording tap, handler. All three contact sources (scan, plan, replay)
// funnel through here so a recorded run and its replay see identical
// side-effect order — and so the adjacency lists are maintained uniformly.
func (m *Medium) raise(now float64, k pairKey) {
	a, b := k[0], k[1]
	m.adj[a] = insertPeer(m.adj[a], b)
	m.adj[b] = insertPeer(m.adj[b], a)
	m.ContactsSeen++
	if m.tap != nil {
		m.tap.add(Transition{Time: now, A: a, B: b, Up: true})
	}
	if m.handler != nil {
		m.handler.ContactUp(now, a, b)
	}
}

// drop fires a contact-down transition, aborting any transfer on the pair.
func (m *Medium) drop(now float64, k pairKey) {
	a, b := k[0], k[1]
	m.adj[a] = removePeer(m.adj[a], b)
	m.adj[b] = removePeer(m.adj[b], a)
	m.abortPair(now, k)
	if m.tap != nil {
		m.tap.add(Transition{Time: now, A: a, B: b, Up: false})
	}
	if m.handler != nil {
		m.handler.ContactDown(now, a, b)
	}
}

// CheckInvariants verifies the adjacency lists: every peer slice must be
// strictly ascending, self-free, and mirrored by the slice of each peer,
// which must be one of the medium's nodes. A medium driven by the live
// scan (Start) also has the scan's grids and sleep state verified
// (checkScanState); the other sources keep no scan state. It exists for
// the equivalence suites and property tests; it is not called on any hot
// path.
func (m *Medium) CheckInvariants() error {
	for id, peers := range m.adj {
		for i, p := range peers {
			if p == id {
				return fmt.Errorf("wireless: node %d adjacent to itself", id)
			}
			if i > 0 && peers[i-1] >= p {
				return fmt.Errorf("wireless: adjacency of %d not strictly ascending: %v", id, peers)
			}
			if !m.Connected(p, id) {
				return fmt.Errorf("wireless: adjacency (%d,%d) not symmetric", id, p)
			}
		}
	}
	return m.checkScanState()
}

// StartTransfer begins moving size bytes from node `from` to node `to`
// at the scheduler's current time. It returns false without side effects
// if the pair is not in contact or either radio is already busy.
// Otherwise the transfer completes after size·8/rate seconds
// (TransferDone), unless the contact breaks first (TransferAborted).
func (m *Medium) StartTransfer(from, to int, size units.Bytes) bool {
	if from == to {
		panic("wireless: transfer to self")
	}
	if size <= 0 {
		panic(fmt.Sprintf("wireless: transfer of %d bytes", size))
	}
	if !m.Connected(from, to) || m.Busy(from) || m.Busy(to) {
		return false
	}
	var t *transfer
	if n := len(m.free); n > 0 {
		t, m.free = m.free[n-1], m.free[:n-1]
	} else {
		t = &transfer{m: m}
		t.fire = t.complete
	}
	t.from, t.to = from, to
	m.sched.Schedule(&t.handle, m.sched.Now()+m.cfg.Rate.TransferTime(size), t.fire)
	m.busy[from] = t
	m.busy[to] = t
	m.TransfersStarted++
	return true
}

// complete lands t when its last byte arrives.
func (t *transfer) complete(now float64) {
	m := t.m
	m.finish(t)
	m.TransfersCompleted++
	if m.xfers != nil {
		m.xfers.TransferDone(now, t.from, t.to)
	}
	m.free = append(m.free, t)
}

// finish clears busy state for a transfer's endpoints.
func (m *Medium) finish(t *transfer) {
	m.busy[t.from] = nil
	m.busy[t.to] = nil
}

// abortPair aborts the transfer (if any) riding the broken contact (a, b).
func (m *Medium) abortPair(now float64, k pairKey) {
	t := m.busy[k[0]]
	if t == nil || m.busy[k[1]] != t {
		return // no shared transfer between exactly this pair
	}
	t.handle.Cancel()
	m.finish(t)
	m.TransfersAborted++
	if m.xfers != nil {
		m.xfers.TransferAborted(now, t.from, t.to)
	}
	m.free = append(m.free, t)
}
