package routing

import (
	"cmp"
	"slices"

	"vdtn/internal/buffer"
	"vdtn/internal/bundle"
	"vdtn/internal/core"
)

// base is the buffer and queue plumbing every router shares: the node it
// is bound to, its buffer, the eviction policy, and the per-peer send
// queues, built at Refresh (queues) or read lazily off the buffer from a
// Refresh-time snapshot (snaps, when walkBy is set). Its methods implement
// the Router calls on which the protocols agree; a protocol that differs
// overrides the method.
type base struct {
	self   int
	buf    *buffer.Store
	drop   core.DropPolicy
	queues queueSet
	snaps  snapSet
	walkBy func(a, b *bundle.Message) int // the buffer's order if NextSend walks snaps, else nil
	send   Send                           // what next returns, overwritten by every call
	deliv  []*bundle.Message              // reused storage for a rebuild's deliverables
}

func newBase(drop core.DropPolicy) base { return base{drop: drop} }

// Attach implements Router.
func (b *base) Attach(self int, buf *buffer.Store) {
	b.self = self
	b.buf = buf
}

// ContactDown implements Router.
func (b *base) ContactDown(now float64, p Peer) {
	b.queues.drop(p.ID())
	b.snaps.drop(p.ID())
}

// OnAbort implements Router and does nothing: the replica stays
// buffered, and an abort only ever comes from contact loss, so the next
// call naming p is ContactDown, which drops p's queue. A later ContactUp
// rebuilds it in schedule order.
func (b *base) OnAbort(now float64, p Peer, s *Send) {}

// OnSent implements Router with the paper's rule: a node that hands a
// message to its final destination discards its own copy. Otherwise the
// replica stays (replication, not handoff).
func (b *base) OnSent(now float64, p Peer, s *Send, delivered bool) {
	if delivered {
		b.buf.Remove(s.Msg.ID)
	}
}

// Receive implements Router: store unless expired or already held,
// evicting per the dropping policy.
func (b *base) Receive(now float64, m *bundle.Message, from Peer) (bool, []*bundle.Message) {
	if m.Expired(now) {
		return false, nil
	}
	return b.store(now, m)
}

// AddMessage implements Router.
func (b *base) AddMessage(now float64, m *bundle.Message) (bool, []*bundle.Message) {
	return b.store(now, m)
}

func (b *base) store(now float64, m *bundle.Message) (bool, []*bundle.Message) {
	b.buf.Expire(now)
	evicted, ok := b.buf.Add(now, m, b.drop)
	return ok, evicted
}

// next pops p's queue, or walks p's snapshot, up to the first message
// still worth sending: still buffered, not expired, not yet delivered to
// p, and accepted by wants. Queue entries are checked here, not when
// queued, because the buffer changes while they wait. It returns nil when
// the queue runs out, and otherwise the router's one Send, reset whole:
// the simulator is done with the previous one before it asks again (see
// Router.NextSend).
func (b *base) next(now float64, p Peer, wants func(*bundle.Message) bool) *Send {
	valid := func(m *bundle.Message) bool {
		return b.buf.Has(m.ID) && !m.Expired(now) && !p.HasDelivered(m.ID) && wants(m)
	}
	var m *bundle.Message
	if b.walkBy != nil {
		m = b.snaps.walk(p, b.buf.Sorted(), b.walkBy, valid)
	} else {
		m = b.queues.pop(p.ID(), valid)
	}
	if m == nil {
		return nil
	}
	b.send = Send{Msg: m}
	return &b.send
}

// groups returns the two empty groups a send-queue rebuild for peer
// fills: the replicas destined to peer, in storage the router reuses, and
// the rest, built directly in the storage of peer's queue.
func (b *base) groups(peer int) (deliv, rest []*bundle.Message) {
	return b.deliv[:0], b.queues.reuse(peer)
}

// queue makes deliv followed by rest peer's send queue, where deliv and
// rest are the groups returned for peer and filled since.
func (b *base) queue(peer int, deliv, rest []*bundle.Message) {
	b.queues.set(peer, slices.Insert(rest, 0, deliv...))
	b.deliv = deliv
}

func byID(x, y *bundle.Message) int { return cmp.Compare(x.ID, y.ID) }

// widen returns v extended to at least n entries, new ones set to fill.
// Node tables are slices indexed by node id (ids are dense) that widen
// as ids appear.
func widen[T any](v []T, n int, fill T) []T {
	for len(v) < n {
		v = append(v, fill)
	}
	return v
}

// at returns v[i], or def when i is out of range.
func at[T any](v []T, i int, def T) T {
	if i >= 0 && i < len(v) {
		return v[i]
	}
	return def
}

// policyRouter is the core of the protocols the paper's Table I policies
// govern (Epidemic, Spray-and-Wait, DirectDelivery, FirstContact): the
// scheduling policy orders each send queue, the dropping policy evicts,
// and the protocol supplies only its relay condition. A replica not
// destined to p goes to p if p holds no replica of it and the condition
// accepts it: Epidemic adds none (nil), Spray-and-Wait asks for more than
// one copy, FirstContact for a node not yet visited, and DirectDelivery
// never relays.
//
// The router has its buffer keep the schedule order (buffer.Store.SortBy).
// Under a schedule whose Order keeps that order (KeepsCompareOrder),
// Refresh records a snapshot of which ids the router and p hold, and
// NextSend walks the ordered entries from a cursor up to the first
// replica worth sending (snapshot). Under Random, Refresh walks the
// entries once and builds the queue Order shuffles. Either way the
// entries' keys settle every replica that p has received or holds, or
// that is destined to p, against p's id sets; only the others are read,
// and only for the relay condition and the pop rule.
type policyRouter struct {
	base
	schedule core.SchedulingPolicy
	relay    func(m *bundle.Message, peer int) bool // nil relays all
}

func newPolicyRouter(name string, pol core.Policy, relay func(m *bundle.Message, peer int) bool) policyRouter {
	if pol.Schedule == nil || pol.Drop == nil {
		panic("routing: " + name + " with incomplete policy")
	}
	r := policyRouter{base: newBase(pol.Drop), schedule: pol.Schedule, relay: relay}
	if pol.Schedule.KeepsCompareOrder() {
		r.walkBy = pol.Schedule.Compare
	}
	return r
}

// relays reports whether m, neither destined to peer nor held by it,
// goes to peer.
func (r *policyRouter) relays(m *bundle.Message, peer int) bool {
	return r.relay == nil || r.relay(m, peer)
}

// Attach implements Router and has buf keep the schedule order.
func (r *policyRouter) Attach(self int, buf *buffer.Store) {
	r.base.Attach(self, buf)
	buf.SortBy(r.schedule.Compare)
}

// ContactUp implements Router. The policy routers keep no encounter
// state; the contact work is building the send queue.
func (r *policyRouter) ContactUp(now float64, p Peer) { r.Refresh(now, p) }

// Refresh implements Router: it (re)builds the send queue for p —
// messages destined to p first ("exchange deliverable messages first"),
// then those p lacks and the relay condition accepts, each group in
// scheduling-policy order. Under a schedule that keeps Compare order it
// only records p's snapshot (see snapshot), which NextSend walks.
func (r *policyRouter) Refresh(now float64, p Peer) {
	r.buf.Expire(now)
	if r.walkBy != nil {
		r.snaps.record(p, r.buf)
		return
	}
	deliverable, rest := r.groups(p.id)
	for _, e := range r.buf.Sorted() {
		switch {
		case p.HasDelivered(e.ID()):
		case e.To() == p.id:
			deliverable = append(deliverable, e.Msg())
		case p.Has(e.ID()):
		case r.relays(e.Msg(), p.id):
			rest = append(rest, e.Msg())
		}
	}
	// Both groups keep the buffer's Compare order, the order Order
	// takes: a deterministic schedule leaves them as they are, and Random
	// shuffles each.
	r.schedule.Order(now, deliverable)
	r.schedule.Order(now, rest)
	r.queue(p.id, deliverable, rest)
}

// NextSend implements Router.
func (r *policyRouter) NextSend(now float64, p Peer) *Send {
	return r.next(now, p, func(m *bundle.Message) bool {
		return m.To == p.id || !p.Has(m.ID) && r.relays(m, p.id)
	})
}
