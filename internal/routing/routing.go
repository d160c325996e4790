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
// The protocols share one core (base.go). Every router embeds base, which
// holds the node id, the buffer, the eviction policy and the per-peer send
// queues, and supplies the Router calls the protocols agree on: Attach,
// ContactDown, OnAbort, Receive, AddMessage, the paper's OnSent rule (a
// node that delivers a message drops its own copy) and the send-queue pop
// with its liveness checks. The four protocols the Table I policies govern
// (Epidemic, Spray-and-Wait, DirectDelivery, FirstContact) embed
// policyRouter on top of base, which has the buffer keep the schedule's
// order and owns their one ContactUp, Refresh and NextSend; each passes
// only its relay rule and overrides the calls where it differs. MaxProp
// and PRoPHET embed base alone and build their queues through its one
// requeue: replicas destined to the peer first, by id, then the ones the
// protocol offers, in its own order. Their node tables are slices indexed
// by node id. Both cores are unexported: a router written outside this
// package implements Router from scratch (see examples/customprotocol).
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

// Peer is a router's view of a node it is currently in contact with.
type Peer interface {
	// ID returns the remote node id.
	ID() int
	// Has reports whether the remote buffer holds a replica of id.
	Has(id bundle.ID) bool
	// HasDelivered reports whether the remote node, as destination,
	// has already received id.
	HasDelivered(id bundle.ID) bool
	// Router returns the remote router, for protocol metadata exchange.
	Router() Router
}

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
	Refresh(now float64, p Peer)

	// NextSend returns the next transmission for p, or nil if the router
	// has nothing (more) to offer p right now. The returned message must
	// be in the router's buffer.
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
// rebuild reuses msgs' storage; ContactDown hands it to the free list.
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

// set replaces peer's queue with the concatenation of groups.
func (q *queueSet) set(peer int, groups ...[]*bundle.Message) {
	sq := q.at(peer)
	if sq.msgs == nil && len(q.free) > 0 {
		n := len(q.free) - 1
		sq.msgs, q.free[n] = q.free[n], nil
		q.free = q.free[:n]
	}
	clear(sq.msgs)
	sq.msgs, sq.head = sq.msgs[:0], 0
	for _, g := range groups {
		sq.msgs = append(sq.msgs, g...)
	}
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

// push re-queues a message at the front (used after an aborted transfer so
// the replica is retried first if the contact resumes). It reuses the slot
// of the entry popped last when there is one.
func (q *queueSet) push(peer int, m *bundle.Message) {
	sq := q.at(peer)
	if sq.head > 0 {
		sq.head--
		sq.msgs[sq.head] = m
		return
	}
	sq.msgs = slices.Insert(sq.msgs, 0, m)
}
