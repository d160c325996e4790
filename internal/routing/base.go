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
// queues. Its methods implement the Router calls on which the protocols
// agree; a protocol that differs overrides the method.
type base struct {
	self   int
	buf    *buffer.Store
	drop   core.DropPolicy
	queues queueSet
	send   Send // what next returns, overwritten by every call

	deliv, rest []*bundle.Message // reused group buffers for queue rebuilds
}

func newBase(drop core.DropPolicy) base { return base{drop: drop} }

// Attach implements Router.
func (b *base) Attach(self int, buf *buffer.Store) {
	b.self = self
	b.buf = buf
}

// ContactDown implements Router.
func (b *base) ContactDown(now float64, p Peer) { b.queues.drop(p.ID()) }

// OnAbort implements Router: the replica stays buffered and is retried
// first if the contact resumes.
func (b *base) OnAbort(now float64, p Peer, s *Send) { b.queues.push(p.ID(), s.Msg) }

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

// next pops p's queue up to the first message still worth sending: still
// buffered, not expired, not yet delivered to p, and accepted by wants.
// Queue entries are checked here, not when queued, because the buffer
// changes while they wait. It returns nil when the queue runs out, and
// otherwise the router's one Send, reset whole: the simulator is done
// with the previous one before it asks again (see Router.NextSend).
func (b *base) next(now float64, p Peer, wants func(*bundle.Message) bool) *Send {
	m := b.queues.pop(p.ID(), func(m *bundle.Message) bool {
		return b.buf.Has(m.ID) && !m.Expired(now) && !p.HasDelivered(m.ID) && wants(m)
	})
	if m == nil {
		return nil
	}
	b.send = Send{Msg: m}
	return &b.send
}

// requeue rebuilds p's send queue from the buffer for MaxProp and PRoPHET.
// It never queues a replica p has already received as destination; it
// queues the replicas destined to p first, by id, then those p does not
// hold that offer accepts, in order's order. order must end in the
// message id, so that it is total.
func (b *base) requeue(p Peer, offer func(*bundle.Message) bool, order func(x, y *bundle.Message) int) {
	deliv, rest := b.deliv[:0], b.rest[:0]
	for _, m := range b.buf.Sorted() {
		switch {
		case p.HasDelivered(m.ID):
		case m.To == p.ID():
			deliv = append(deliv, m)
		case !p.Has(m.ID) && offer(m):
			rest = append(rest, m)
		}
	}
	slices.SortFunc(deliv, byID)
	slices.SortFunc(rest, order)
	b.queues.set(p.ID(), deliv, rest)
	b.deliv, b.rest = deliv, rest
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
// and the protocol supplies only its relay rule — whether a replica that
// is not destined to p should go to p.
//
// The router has its buffer keep the schedule order (buffer.Store.SortBy),
// so a Refresh filters the already ordered replicas instead of copying
// and sorting the buffer per peer.
type policyRouter struct {
	base
	schedule core.SchedulingPolicy
	relay    func(m *bundle.Message, p Peer) bool
}

func newPolicyRouter(name string, pol core.Policy, relay func(*bundle.Message, Peer) bool) policyRouter {
	if pol.Schedule == nil || pol.Drop == nil {
		panic("routing: " + name + " with incomplete policy")
	}
	return policyRouter{base: newBase(pol.Drop), schedule: pol.Schedule, relay: relay}
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
// then those the relay rule accepts, each group in scheduling-policy
// order.
func (r *policyRouter) Refresh(now float64, p Peer) {
	r.buf.Expire(now)
	deliverable, rest := r.deliv[:0], r.rest[:0]
	for _, m := range r.buf.Sorted() {
		switch {
		case p.HasDelivered(m.ID):
			continue
		case m.To == p.ID():
			deliverable = append(deliverable, m)
		case r.relay(m, p):
			rest = append(rest, m)
		}
	}
	// Both groups arrive in Compare order, so a deterministic Order
	// leaves them as they are; Random still shuffles each, drawing
	// exactly as it would from any other input order.
	r.schedule.Order(now, deliverable)
	r.schedule.Order(now, rest)
	r.queues.set(p.ID(), deliverable, rest)
	r.deliv, r.rest = deliverable, rest
}

// NextSend implements Router.
func (r *policyRouter) NextSend(now float64, p Peer) *Send {
	return r.next(now, p, func(m *bundle.Message) bool { return m.To == p.ID() || r.relay(m, p) })
}
