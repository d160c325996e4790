// Package routing implements the DTN routing protocols the paper evaluates:
// Epidemic and binary Spray-and-Wait (whose transmission order and eviction
// are governed by the pluggable scheduling/dropping policies of
// internal/core), plus MaxProp and PRoPHET (which carry their own
// scheduling and dropping machinery), and two classic baselines
// (DirectDelivery, FirstContact).
//
// Routers are decision-makers: the simulator (internal/sim) owns contacts,
// transfers, delivery bookkeeping and statistics, and consults the router
// at each step — what to send next to a peer, what to do after a transfer,
// whether to accept an incoming replica. This keeps every protocol unit-
// testable without a full simulation.
//
// A router sees the node it meets as a Peer: a concrete view the simulator
// builds once per node, holding the node's id, buffer, delivered-id set
// and router. A send queue is the buffer as it stood at the last Refresh,
// filtered against the peer's id sets and put in schedule order. Under a
// schedule that keeps its Compare order
// (SchedulingPolicy.KeepsCompareOrder: every core schedule but Random),
// Refresh builds no queue. It copies the words of two id bitsets, its own
// buffer's and the peer's, as many as its own buffer's set spans. NextSend
// then reads the queue lazily, walking the buffer's entries
// (buffer.Store.Sorted), each a replica's id and destination beside the
// replica, from a cursor. Most Refreshes are followed by less than one
// send before the next, so the walk stops at the first replica worth
// sending instead of building the whole queue.
// Under Random, and in MaxProp and PRoPHET, Refresh builds the whole
// queue. Either way the entries' keys are tested against the peer's id
// sets first, and a replica is read only when the protocol's own
// condition or the pop rule needs it.
//
// The protocols share one core (base.go). Every router embeds base, which
// holds the node id, the buffer, the eviction policy and the per-peer send
// queues, and supplies the Router calls the protocols agree on: Attach,
// ContactDown, OnAbort, Receive, AddMessage, the paper's OnSent rule (a
// node that delivers a message drops its own copy) and the send-queue pop
// with its liveness checks. The four protocols the Table I policies govern
// (Epidemic, Spray-and-Wait, DirectDelivery, FirstContact) embed
// policyRouter on top of base, which has the buffer keep the schedule's
// order and owns their one ContactUp, Refresh and NextSend; each passes
// only the condition it adds to "the peer lacks it" and overrides the
// calls where it differs. MaxProp and PRoPHET embed base alone and build
// their own queues: replicas destined to the peer first, by id, then the
// ones the protocol offers, in its own order. MaxProp has the buffer keep
// that order and re-sorts it when its costs or hop threshold move;
// PRoPHET's order depends on the peer, so it sorts per peer. Their node
// tables are slices indexed by node id. Both cores are unexported: a
// router written outside this package implements Router from scratch
// (see examples/customprotocol).
//
// Protocol metadata exchange (PRoPHET predictability vectors, MaxProp
// likelihood vectors and ack lists) happens by direct access to the peer's
// router at contact time. This is the standard simulator shortcut (the ONE
// does the same): the metadata is tiny compared to bundles, and modelling
// its airtime would only add a constant setup cost per contact.
package routing

import (
	"slices"

	"vdtn/internal/buffer"
	"vdtn/internal/bundle"
)

// Peer is a router's view of a node it is currently in contact with: the
// node's id, its buffer, the ids it has received as destination and its
// router. The simulator builds one Peer per node (NewPeer) and hands it
// to every router that meets the node. The view is live: Has and
// HasDelivered read the node's current sets. A send-queue rebuild tests
// each buffered replica's key against them directly, and a snapshot
// copies their words at Refresh.
type Peer struct {
	id        int
	buf       *buffer.Store
	delivered *bundle.IDSet
	router    Router
}

// NewPeer returns the view of node id whose buffer is buf, whose
// delivered ids are delivered and whose router is r. buf and delivered
// must not be nil; r may be, for a node with no router.
func NewPeer(id int, buf *buffer.Store, delivered *bundle.IDSet, r Router) Peer {
	return Peer{id: id, buf: buf, delivered: delivered, router: r}
}

// ID returns the remote node id.
func (p Peer) ID() int { return p.id }

// Has reports whether the remote buffer holds a replica of id.
func (p Peer) Has(id bundle.ID) bool { return p.buf.Has(id) }

// HasDelivered reports whether the remote node, as destination, has
// already received id.
func (p Peer) HasDelivered(id bundle.ID) bool { return p.delivered.Has(id) }

// Router returns the remote router, for protocol metadata exchange.
func (p Peer) Router() Router { return p.router }

// Send is one transmission decision: which buffered replica to put on the
// wire and, for copy-budget protocols, how many logical copies the receiver
// will own (0 means the protocol default of 1).
type Send struct {
	Msg            *bundle.Message
	TransferCopies int
}

// Router is a DTN routing protocol instance bound to one node.
type Router interface {
	// Name returns the protocol name as used in reports ("Epidemic", ...).
	Name() string

	// Attach binds the router to its node. Called exactly once before any
	// other method.
	Attach(self int, buf *buffer.Store)

	// ContactUp tells the router a contact with p began.
	ContactUp(now float64, p Peer)

	// ContactDown tells the router the contact with p ended.
	ContactDown(now float64, p Peer)

	// Refresh rebuilds the send queue for the ongoing contact with p
	// without applying any protocol state updates (no encounter boosts,
	// no metadata exchange). The simulator calls it when the buffer gained
	// messages mid-contact — a newly created message, or a replica relayed
	// in from a third node — so they become eligible on the live contact,
	// as they would in a continuously re-evaluating simulator.
	//
	// The queue is a snapshot of this moment, however it is kept: it
	// holds the replicas the router holds now that go to p now, in
	// schedule order. A replica the router gains after Refresh is not in
	// it, and one p holds now stays out of it after p drops it. The
	// built-in routers under a schedule that keeps its Compare order
	// record only which ids the router and p hold now, and NextSend reads
	// the queue lazily off the buffer.
	Refresh(now float64, p Peer)

	// NextSend returns the next transmission for p, or nil if the router
	// has nothing (more) to offer p right now. The returned message must
	// be in the router's buffer.
	//
	// It offers the first replica left in the last Refresh's queue that
	// is still worth sending now: still buffered, not expired, not yet
	// delivered to p, and still one the protocol sends p. Each call moves
	// past every replica it refuses, so a refused replica is not offered
	// again before the next Refresh. A replica removed and stored again
	// between two Refreshes keeps its place in the queue. The built-in
	// routers that read the queue lazily rely on three facts of every
	// run, each pinned by a test: p's delivered set only grows, a
	// protocol's relay condition never turns true again for a stored
	// replica once false, and the schedule order of replicas buffered
	// together never changes. Two flows no run makes break them, and
	// there the two kinds of queue differ. Another replica of an id,
	// stored between two Refreshes, a lazy queue offers at its own place,
	// where a built one offered the replica it had queued. A
	// Spray-and-Wait replica granted a new budget by AddMessage a lazy
	// queue offers, where a built one had left it out.
	//
	// The router may reuse the returned Send's storage on a later call:
	// the simulator reads it, and hands it back to OnSent or OnAbort,
	// only until that transfer completes or aborts, and a node's radio
	// carries one transfer at a time, so it never calls NextSend on the
	// same router in between. The built-in routers return one Send,
	// reset whole on every call; returning a fresh Send is equally valid.
	NextSend(now float64, p Peer) *Send

	// OnSent reports that the transfer of s to p completed. delivered is
	// true when p was the message destination.
	OnSent(now float64, p Peer, s *Send, delivered bool)

	// OnAbort reports that the transfer of s to p was cut by contact loss.
	// The contact is already gone: the next call naming p is ContactDown.
	OnAbort(now float64, p Peer, s *Send)

	// Receive offers an incoming replica m (already stamped by
	// Message.ForwardTo) arriving from p. It returns whether the replica
	// was stored and any replicas evicted to make room.
	Receive(now float64, m *bundle.Message, from Peer) (accepted bool, evicted []*bundle.Message)

	// AddMessage injects a locally created message (the traffic source).
	AddMessage(now float64, m *bundle.Message) (accepted bool, evicted []*bundle.Message)
}

// queueSet tracks per-peer send queues between ContactUp and ContactDown,
// indexed by peer id (node ids are dense). Queues hold buffered replicas
// in transmission order; entries are revalidated at pop time because
// buffer contents change while queued (TTL expiry, evictions, copies
// delivered elsewhere).
//
// A dropped queue's storage, cleared, goes on a free list that the next
// new queue draws from, so a router never holds more backing arrays than
// the most contacts it has had open at once, however long the run.
type queueSet struct {
	peers []sendQueue
	free  [][]*bundle.Message // dropped queues' storage, empty and cleared
}

// sendQueue is one peer's queue: msgs[head:] are still to be offered. A
// rebuild writes the new queue into msgs' storage; ContactDown hands it
// to the free list.
type sendQueue struct {
	msgs []*bundle.Message
	head int
}

// at returns peer's queue, growing the set to hold it.
func (q *queueSet) at(peer int) *sendQueue {
	if peer >= len(q.peers) {
		q.peers = append(q.peers, make([]sendQueue, peer+1-len(q.peers))...)
	}
	return &q.peers[peer]
}

// reuse returns peer's queue storage, emptied and cleared, for a rebuild
// to append the new queue to and hand to set. A peer with no storage yet
// draws the most recently dropped one, if any.
func (q *queueSet) reuse(peer int) []*bundle.Message {
	sq := q.at(peer)
	if sq.msgs == nil && len(q.free) > 0 {
		n := len(q.free) - 1
		sq.msgs, q.free[n] = q.free[n], nil
		q.free = q.free[:n]
	}
	clear(sq.msgs)
	sq.msgs, sq.head = sq.msgs[:0], 0
	return sq.msgs
}

// set makes msgs peer's queue, from its head. msgs is built on the
// storage reuse returned, or replaces it.
func (q *queueSet) set(peer int, msgs []*bundle.Message) {
	sq := q.at(peer)
	sq.msgs, sq.head = msgs, 0
}

// drop ends peer's queue and keeps its storage for the next one.
func (q *queueSet) drop(peer int) {
	if peer >= len(q.peers) {
		return
	}
	sq := &q.peers[peer]
	if sq.msgs != nil {
		clear(sq.msgs)
		q.free = append(q.free, sq.msgs[:0])
	}
	*sq = sendQueue{}
}

// pop returns the first queued message satisfying valid, discarding
// entries that fail it. Returns nil when the queue is exhausted.
func (q *queueSet) pop(peer int, valid func(*bundle.Message) bool) *bundle.Message {
	if peer >= len(q.peers) {
		return nil
	}
	sq := &q.peers[peer]
	for sq.head < len(sq.msgs) {
		m := sq.msgs[sq.head]
		sq.head++
		if valid(m) {
			return m
		}
	}
	return nil
}

// snapSet tracks per-peer send-queue snapshots between ContactUp and
// ContactDown, for a router whose schedule keeps the buffer's Compare
// order (SchedulingPolicy.KeepsCompareOrder). A snapshot stands in for
// the queue Refresh would have built: Refresh records only which ids the
// router and the peer held, and NextSend reads the queue off the
// buffer's entries (buffer.Store.Sorted) from a cursor.
//
// The snapshots of the open contacts sit together in open, found by peer
// id through slot. A dropped snapshot keeps its word storage past the
// end of open for the next one, so a router never holds more snapshots,
// or word arrays, than it has had contacts open at once.
type snapSet struct {
	slot []int32    // by peer id: 1 + the index of its snapshot in open, or 0
	open []snapshot // one per peer with a snapshot, in no order
}

// Walk phases: a snapshot offers the replicas destined to its peer
// first, then the rest. The zero phase offers nothing: the walk is
// through.
const (
	walkDone = iota
	walkDeliv
	walkRest
)

// snapshot is one peer's send queue, read lazily. Refresh records, over
// the id words of the router's buffer, the ids the router held (own) and
// those among them the peer did not hold (spare). The queue Refresh would
// have built is then exactly the buffer's entries, in Compare order, that
// are destined to the peer and own, followed by those that are not and
// spare, less those the pop rule refuses. That rests on three facts,
// pinned by sim.TestSnapshotFactsHoldInRuns:
//
//   - a peer's delivered set only grows, so a replica delivered to it at
//     Refresh is refused at pop time too;
//   - a relay condition, once false for a buffered replica, stays false
//     (Spray-and-Wait's copy budget only falls while the replica is
//     stored, FirstContact's visited set is fixed), so checking it at
//     pop time alone refuses every replica Refresh would have left out;
//   - the Compare order of replicas buffered together never changes, so
//     the entries still buffered keep the queue's order.
//
// The cursor is the index of the next entry to walk and the entry walked
// before it. When the buffer changed before the cursor, the walk goes on
// from the first entry after that one by Compare order, whether or not it
// is still buffered, so a removal never makes it skip an entry. A
// replica is known by its id: another replica of an own id, stored after
// Refresh, is offered at its own place (see Router.NextSend).
type snapshot struct {
	words []uint64        // own's n words, then spare's n
	last  *bundle.Message // the entry walked before i; nil at a phase's start
	peer  int32
	n     int32 // words per id set
	i     int32 // next entry of buf.Sorted() to walk
	phase uint8
}

// own returns the ids the router held at Refresh.
func (s *snapshot) own() bundle.IDWords { return s.words[:s.n] }

// spare returns the ids the router held at Refresh and the peer did not:
// the ones that may go to the peer as relays.
func (s *snapshot) spare() bundle.IDWords { return s.words[s.n:] }

// at returns peer's snapshot. If peer has none, it makes one on the
// storage of the last snapshot dropped, if there is one.
func (q *snapSet) at(peer int) *snapshot {
	q.slot = widen(q.slot, peer+1, 0)
	if k := q.slot[peer]; k > 0 {
		return &q.open[k-1]
	}
	n := len(q.open)
	if n < cap(q.open) {
		q.open = q.open[:n+1]
	} else {
		q.open = append(q.open, snapshot{})
	}
	q.open[n].peer = int32(peer)
	q.slot[peer] = int32(n + 1)
	return &q.open[n]
}

// record makes p's snapshot the ids stored in own now, and the spare
// ones among them: those p does not hold. Both cover own's id words; the
// cursor starts at the first entry.
func (q *snapSet) record(p Peer, own *buffer.Store) {
	s := q.at(p.id)
	n := own.NumIDWords()
	w := own.AppendIDWords(s.words[:0], n)
	w = p.buf.AppendIDWords(w, n)
	for k, o := range w[:n] {
		w[n+k] = o &^ w[n+k]
	}
	s.words, s.n = w, int32(n)
	s.phase, s.i, s.last = walkDeliv, 0, nil
}

// drop ends peer's snapshot. The last open snapshot takes its place, and
// its storage stays past the end of open.
func (q *snapSet) drop(peer int) {
	if peer >= len(q.slot) || q.slot[peer] == 0 {
		return
	}
	k, n := q.slot[peer]-1, int32(len(q.open)-1)
	q.open[k], q.open[n] = q.open[n], q.open[k]
	q.slot[q.open[k].peer] = k + 1
	q.slot[peer] = 0
	q.open[n] = snapshot{words: q.open[n].words[:0]}
	q.open = q.open[:n]
}

// get returns peer's snapshot, or nil if it has none.
func (q *snapSet) get(peer int) *snapshot {
	if peer >= len(q.slot) || q.slot[peer] == 0 {
		return nil
	}
	return &q.open[q.slot[peer]-1]
}

// walk returns the next entry of p's snapshot that valid accepts,
// moving the cursor past it and past every entry it walked and valid
// refused, or nil once the snapshot is walked through. es are the
// buffer's entries, in the order cmp gives them.
func (q *snapSet) walk(p Peer, es []buffer.Entry, cmp func(a, b *bundle.Message) int, valid func(*bundle.Message) bool) *bundle.Message {
	s := q.get(p.id)
	if s == nil {
		return nil
	}
	i := int(s.i)
	if s.last != nil && (i > len(es) || es[i-1].Msg() != s.last) {
		// The store changed before the cursor: go on after the last entry
		// walked, by Compare order, whether or not it is still stored.
		j, found := slices.BinarySearchFunc(es, s.last, func(e buffer.Entry, m *bundle.Message) int { return cmp(e.Msg(), m) })
		if found {
			j++
		}
		i = j
	}
	if s.phase == walkDeliv {
		own := s.own()
		for ; i < len(es); i++ {
			e := es[i]
			if e.To() != p.id {
				continue
			}
			if m := e.Msg(); own.Has(e.ID()) && !p.HasDelivered(e.ID()) && valid(m) {
				s.i, s.last = int32(i+1), m
				return m
			}
		}
		s.phase, i = walkRest, 0
	}
	if s.phase == walkRest {
		spare := s.spare()
		for ; i < len(es); i++ {
			e := es[i]
			if m := e.Msg(); spare.Has(e.ID()) && e.To() != p.id && !p.Has(e.ID()) && valid(m) {
				s.i, s.last = int32(i+1), m
				return m
			}
		}
	}
	s.phase, s.i, s.last = walkDone, 0, nil
	return nil
}
