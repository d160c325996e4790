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
// hash grid with cell size equal to the radio range. The scan is
// incremental: positions, grid buckets and the in-range pair set persist
// across ticks, entities whose mobility model reports a static-until hint
// (parked relays, paused walkers) are skipped entirely, and a steady-state
// tick allocates nothing — so a scan costs O(movers + contacts), not
// O(nodes²) and not even O(nodes).
//
// Every contact transition — scanned, planned or replayed — updates a
// sorted per-node adjacency cache, so PeersOf is an O(1) lookup of an
// O(degree) slice instead of a walk over the global contact set.
package wireless

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"vdtn/internal/event"
	"vdtn/internal/geo"
	"vdtn/internal/units"
)

// Entity is a radio-equipped node tracked by the medium.
type Entity interface {
	// ID returns the node's unique non-negative id.
	ID() int
	// Position returns the node position at time now. The medium queries
	// positions with non-decreasing timestamps.
	Position(now float64) geo.Point
}

// ContactHandler receives contact lifecycle notifications. ContactUp and
// ContactDown are invoked once per (unordered) pair transition, with
// a.ID() < b.ID().
type ContactHandler interface {
	ContactUp(now float64, a, b Entity)
	ContactDown(now float64, a, b Entity)
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

// Transfer is an in-flight message transfer between two connected nodes.
type Transfer struct {
	From, To int
	Size     units.Bytes
	Started  float64

	handle  *event.Handle
	onDone  func(now float64)
	onAbort func(now float64)
}

type pairKey [2]int

func key(a, b int) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{a, b}
}

// Medium owns contact state and in-flight transfers.
// The zero value is not usable; use NewMedium.
type Medium struct {
	sched    *event.Scheduler
	cfg      Config
	entities []Entity
	byID     map[int]Entity
	handler  ContactHandler

	connected map[pairKey]bool
	idxOf     map[int]int32 // entity id -> index into entities/adj
	adj       [][]int       // entity index -> sorted peer ids, updated on every transition
	busy      map[int]*Transfer

	sc      scanState // live-scan working set, reused across ticks
	started bool      // Start, StartPlan or StartReplay has run

	rec           *Recording // transition tap, nil when not recording
	replayCur     TransitionCursor
	replayNext    Transition
	replayHas     bool
	replayChecked bool // node ids pre-validated at StartReplay; skip per-tick checks

	// Counters for tests and reports.
	ContactsSeen       uint64 // ContactUp events
	TransfersStarted   uint64
	TransfersCompleted uint64
	TransfersAborted   uint64
}

// NewMedium returns a medium scheduling on sched. Panics on invalid config.
func NewMedium(sched *event.Scheduler, cfg Config) *Medium {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	return &Medium{
		sched:     sched,
		cfg:       cfg,
		byID:      make(map[int]Entity),
		connected: make(map[pairKey]bool),
		idxOf:     make(map[int]int32),
		busy:      make(map[int]*Transfer),
	}
}

// Add registers an entity. Panics on duplicate or negative ids, which are
// always scenario-assembly bugs.
func (m *Medium) Add(e Entity) {
	id := e.ID()
	if id < 0 {
		panic(fmt.Sprintf("wireless: negative entity id %d", id))
	}
	if id > math.MaxUint32 {
		// The scan packs two ids into one uint64 pair key.
		panic(fmt.Sprintf("wireless: entity id %d exceeds 32 bits", id))
	}
	if _, dup := m.byID[id]; dup {
		panic(fmt.Sprintf("wireless: duplicate entity id %d", id))
	}
	m.idxOf[id] = int32(len(m.entities))
	m.entities = append(m.entities, e)
	m.adj = append(m.adj, nil)
	m.byID[id] = e
}

// SetHandler installs the contact lifecycle handler. Must be called before
// Start.
func (m *Medium) SetHandler(h ContactHandler) { m.handler = h }

// Start begins periodic proximity scanning at time `from`.
func (m *Medium) Start(from float64) {
	if m.started {
		panic("wireless: Start called twice")
	}
	m.started = true
	m.sched.Every(from, m.cfg.ScanInterval, m.scan)
}

// ContactWindow is one scheduled contact for plan-driven operation.
type ContactWindow struct {
	A, B       int
	Start, End float64
}

// planEvent is one half of a contact window: a raise at its start or a
// drop at its end.
type planEvent struct {
	t  float64
	up bool
	k  pairKey
}

// StartPlan drives contacts from an explicit schedule instead of proximity
// scanning: each window raises the contact at Start and breaks it (aborting
// any transfer riding it) at End. Entity positions are ignored in this
// mode. Windows must reference registered entities and be pre-validated
// (internal/contactplan does both); StartPlan panics on unknown ids.
// Start and StartPlan are mutually exclusive.
//
// Transitions that fall on the same instant honor the scan's ordering
// contract regardless of the order windows were given in: all downs fire
// first (freeing the endpoints' radios), then all ups, each ascending by
// node pair. One scheduler event is dispatched per distinct instant.
func (m *Medium) StartPlan(windows []ContactWindow) {
	if m.started {
		panic("wireless: StartPlan after Start")
	}
	m.started = true
	events := make([]planEvent, 0, 2*len(windows))
	for _, win := range windows {
		if _, ok := m.byID[win.A]; !ok {
			panic(fmt.Sprintf("wireless: plan references unknown node %d", win.A))
		}
		if _, ok := m.byID[win.B]; !ok {
			panic(fmt.Sprintf("wireless: plan references unknown node %d", win.B))
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
				switch {
				case ev.up && !m.connected[ev.k]:
					m.raise(now, ev.k)
				case !ev.up && m.connected[ev.k]:
					// The guards keep overlapping windows (merged
					// upstream, but this is a public API) idempotent.
					m.drop(now, ev.k)
				}
			}
		})
		start = end
	}
}

// RecordTo taps every subsequent contact transition into rec, stamping the
// medium's scan interval on it. Install the tap before Start (or StartPlan /
// StartReplay). A trace recorded from a scan- or replay-driven run drives a
// bit-identical re-run via StartReplay; a trace recorded from StartPlan may
// hold off-tick transition times, which replay quantizes to the next scan
// tick. Recording costs one slice append per transition.
func (m *Medium) RecordTo(rec *Recording) {
	if rec == nil {
		panic("wireless: RecordTo(nil)")
	}
	if m.started {
		panic("wireless: RecordTo after Start")
	}
	rec.ScanInterval = m.cfg.ScanInterval
	m.rec = rec
}

// StartReplay drives contacts from a recorded transition trace instead of
// proximity scanning. It re-runs the recording through the same periodic
// tick loop the live scan uses — each tick applies the recorded transitions
// due at or before it, downs and ups in recorded order — so a replayed run
// schedules exactly the same events in exactly the same order as the live
// run that produced the recording: results are bit-identical. Entity
// positions are never queried.
//
// src is either an in-memory *Recording or a zero-copy *RecordingView
// (any ReplaySource); the medium takes one cursor from it, so any number
// of replaying media may share one source. The source's scan interval must
// equal the medium's, and every referenced node must be registered;
// violations panic as scenario-assembly bugs — eagerly for an in-memory
// recording, at the offending tick for a streamed source (a view's node
// range is pre-checked via MaxNode by the sim layer). Start, StartPlan and
// StartReplay are mutually exclusive.
func (m *Medium) StartReplay(from float64, src ReplaySource) {
	if m.started {
		panic("wireless: StartReplay after Start")
	}
	if scan := src.Meta().ScanInterval; scan != m.cfg.ScanInterval {
		panic(fmt.Sprintf("wireless: recording scan interval %v, medium %v",
			scan, m.cfg.ScanInterval))
	}
	if rec, ok := src.(*Recording); ok {
		// Materialized traces are cheap to pre-check, preserving the
		// fail-at-assembly contract for direct library use — and sparing
		// the per-tick re-check in the replay hot loop.
		for _, tr := range rec.Transitions {
			m.checkReplayNodes(tr)
		}
		m.replayChecked = true
	}
	m.replayCur = src.Cursor()
	m.replayNext, m.replayHas = m.replayCur.Next()
	m.started = true
	m.sched.Every(from, m.cfg.ScanInterval, m.replayTick)
}

// checkReplayNodes panics if a replayed transition references an entity
// the medium does not have — a scenario-assembly bug.
func (m *Medium) checkReplayNodes(tr Transition) {
	if _, ok := m.byID[tr.A]; !ok {
		panic(fmt.Sprintf("wireless: recording references unknown node %d", tr.A))
	}
	if _, ok := m.byID[tr.B]; !ok {
		panic(fmt.Sprintf("wireless: recording references unknown node %d", tr.B))
	}
}

// replayTick applies the recorded transitions due at this scan tick. A
// recording captured from a live scan holds only tick-aligned timestamps,
// so each transition fires on the exact tick it was recorded at; off-tick
// timestamps (hand-edited traces) apply at the first tick at or after them.
func (m *Medium) replayTick(now float64) {
	for m.replayHas && m.replayNext.Time <= now {
		tr := m.replayNext
		m.replayNext, m.replayHas = m.replayCur.Next()
		if !m.replayChecked {
			m.checkReplayNodes(tr)
		}
		k := key(tr.A, tr.B)
		switch {
		case tr.Up && !m.connected[k]:
			m.raise(now, k)
		case !tr.Up && m.connected[k]:
			m.drop(now, k)
		}
	}
}

// Connected reports whether nodes a and b are currently in contact.
func (m *Medium) Connected(a, b int) bool { return m.connected[key(a, b)] }

// Busy reports whether node id is currently part of a transfer.
func (m *Medium) Busy(id int) bool { return m.busy[id] != nil }

// Rate returns the configured contact data rate.
func (m *Medium) Rate() units.BitRate { return m.cfg.Rate }

// PeersOf returns the ids currently in contact with node id, in ascending
// order. The slice is the medium's incrementally-maintained adjacency
// cache: it is valid until the next contact transition and must not be
// modified or retained by the caller.
func (m *Medium) PeersOf(id int) []int {
	i, ok := m.idxOf[id]
	if !ok {
		return nil
	}
	return m.adj[i]
}

// insertPeer adds v to the sorted peer slice s, keeping it sorted.
func insertPeer(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	if i < len(s) && s[i] == v {
		return s // already present (unreachable: raise guards on connected)
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
		return s // not present (unreachable: drop guards on connected)
	}
	copy(s[i:], s[i+1:])
	return s[:len(s)-1]
}

// raise fires a contact-up transition: state, adjacency, counters,
// recording tap, handler. All three contact sources (scan, plan, replay)
// funnel through here so a recorded run and its replay see identical
// side-effect order — and so the adjacency cache is maintained uniformly.
func (m *Medium) raise(now float64, k pairKey) {
	m.connected[k] = true
	ia, ib := m.idxOf[k[0]], m.idxOf[k[1]]
	m.adj[ia] = insertPeer(m.adj[ia], k[1])
	m.adj[ib] = insertPeer(m.adj[ib], k[0])
	m.ContactsSeen++
	if m.rec != nil {
		m.rec.Transitions = append(m.rec.Transitions, Transition{Time: now, A: k[0], B: k[1], Up: true})
	}
	if m.handler != nil {
		m.handler.ContactUp(now, m.entities[ia], m.entities[ib])
	}
}

// drop fires a contact-down transition, aborting any transfer on the pair.
func (m *Medium) drop(now float64, k pairKey) {
	delete(m.connected, k)
	ia, ib := m.idxOf[k[0]], m.idxOf[k[1]]
	m.adj[ia] = removePeer(m.adj[ia], k[1])
	m.adj[ib] = removePeer(m.adj[ib], k[0])
	m.abortPair(now, k)
	if m.rec != nil {
		m.rec.Transitions = append(m.rec.Transitions, Transition{Time: now, A: k[0], B: k[1], Up: false})
	}
	if m.handler != nil {
		m.handler.ContactDown(now, m.entities[ia], m.entities[ib])
	}
}

// CheckInvariants verifies the adjacency cache against the connected set:
// every peer slice must be strictly ascending, self-free, and mirror a
// live connected pair symmetrically, and the total degree must equal
// twice the connected-pair count (so no pair is missing from the cache).
// It exists for the equivalence suites and property tests; it is not
// called on any hot path.
func (m *Medium) CheckInvariants() error {
	degree := 0
	for idx, e := range m.entities {
		id := e.ID()
		peers := m.adj[idx]
		degree += len(peers)
		for i, p := range peers {
			if p == id {
				return fmt.Errorf("wireless: node %d adjacent to itself", id)
			}
			if i > 0 && peers[i-1] >= p {
				return fmt.Errorf("wireless: adjacency of %d not strictly ascending: %v", id, peers)
			}
			if !m.connected[key(id, p)] {
				return fmt.Errorf("wireless: adjacency (%d,%d) not in connected set", id, p)
			}
			back := m.adj[m.idxOf[p]]
			if j := sort.SearchInts(back, id); j >= len(back) || back[j] != id {
				return fmt.Errorf("wireless: adjacency (%d,%d) not symmetric", id, p)
			}
		}
	}
	if degree != 2*len(m.connected) {
		return fmt.Errorf("wireless: total degree %d, connected pairs %d", degree, len(m.connected))
	}
	return nil
}

// StartTransfer begins moving size bytes from node `from` to node `to`.
// It returns false without side effects if the pair is not in contact or
// either radio is already busy. Otherwise the transfer completes after
// size·8/rate seconds (onDone), unless the contact breaks first (onAbort).
func (m *Medium) StartTransfer(now float64, from, to int, size units.Bytes, onDone, onAbort func(now float64)) bool {
	if from == to {
		panic("wireless: transfer to self")
	}
	if size <= 0 {
		panic(fmt.Sprintf("wireless: transfer of %d bytes", size))
	}
	if !m.Connected(from, to) || m.Busy(from) || m.Busy(to) {
		return false
	}
	t := &Transfer{
		From:    from,
		To:      to,
		Size:    size,
		Started: now,
		onDone:  onDone,
		onAbort: onAbort,
	}
	dur := m.cfg.Rate.TransferTime(size)
	t.handle = m.sched.After(dur, func(fireNow float64) {
		m.finish(t)
		m.TransfersCompleted++
		if t.onDone != nil {
			t.onDone(fireNow)
		}
	})
	m.busy[from] = t
	m.busy[to] = t
	m.TransfersStarted++
	return true
}

// finish clears busy state for a transfer's endpoints.
func (m *Medium) finish(t *Transfer) {
	if m.busy[t.From] == t {
		delete(m.busy, t.From)
	}
	if m.busy[t.To] == t {
		delete(m.busy, t.To)
	}
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
	if t.onAbort != nil {
		t.onAbort(now)
	}
}
