package routing

import (
	"vdtn/internal/bundle"
	"vdtn/internal/core"
)

// DirectDelivery is the minimal baseline: a node carries its own messages
// and hands each one over only when it meets the destination itself.
// Zero replication — the delivery-ratio floor every multi-copy protocol
// should beat.
type DirectDelivery struct{ policyRouter }

// NewDirectDelivery returns a DirectDelivery router. The policy orders
// deliverable messages and governs eviction (the paper's policies apply
// even to this degenerate protocol).
func NewDirectDelivery(pol core.Policy) *DirectDelivery {
	return &DirectDelivery{newPolicyRouter("DirectDelivery", pol, func(*bundle.Message, int) bool {
		return false
	})}
}

// Name implements Router.
func (d *DirectDelivery) Name() string { return "DirectDelivery" }

// Receive implements Router: DirectDelivery never accepts relays — only
// the destination takes a message off the source, and deliveries are
// handled by the simulator before Receive would be called.
func (d *DirectDelivery) Receive(now float64, m *bundle.Message, from Peer) (bool, []*bundle.Message) {
	return false, nil
}

// FirstContact forwards the single copy of each message to the first
// usable contact and deletes its own replica — the message hops through
// the network with exactly one live copy (Jain, Fall, Patra 2004 baseline).
type FirstContact struct{ policyRouter }

// NewFirstContact returns a FirstContact router. A replica never goes
// back to a node it already passed through.
func NewFirstContact(pol core.Policy) *FirstContact {
	return &FirstContact{newPolicyRouter("FirstContact", pol, func(m *bundle.Message, peer int) bool {
		return !m.HasVisited(peer)
	})}
}

// Name implements Router.
func (f *FirstContact) Name() string { return "FirstContact" }

// OnSent implements Router: the copy moves — the sender always forgets it.
func (f *FirstContact) OnSent(now float64, p Peer, s *Send, delivered bool) {
	f.buf.Remove(s.Msg.ID)
}
