package sim

import (
	"vdtn/internal/buffer"
	"vdtn/internal/bundle"
	"vdtn/internal/routing"
)

// Kind distinguishes the two node classes of the scenario.
type Kind int

// Node classes.
const (
	Vehicle Kind = iota
	Relay
)

// String names the kind.
func (k Kind) String() string {
	if k == Relay {
		return "relay"
	}
	return "vehicle"
}

// Node is one network participant: buffer + router + the delivery
// bookkeeping of the node as a destination. Its movement is the contact
// pass's alone (contactPass): a world's node has no position.
type Node struct {
	id     int
	kind   Kind
	buf    *buffer.Store
	router routing.Router

	// delivered is the set of message ids this node received as
	// destination; the node refuses duplicates forever after.
	delivered bundle.IDSet

	// peer is the view of this node that every router meeting it sees.
	peer routing.Peer
}

func newNode(id int, kind Kind, buf *buffer.Store, r routing.Router) *Node {
	n := &Node{id: id, kind: kind, buf: buf, router: r}
	n.peer = routing.NewPeer(id, buf, &n.delivered, r)
	r.Attach(id, buf)
	return n
}

// ID returns the node's id: vehicles are 0..Vehicles-1, relays follow.
func (n *Node) ID() int { return n.id }

// Kind returns the node class.
func (n *Node) Kind() Kind { return n.kind }

// Router returns the node's routing protocol instance.
func (n *Node) Router() routing.Router { return n.router }

// Buffer returns the node's message store.
func (n *Node) Buffer() *buffer.Store { return n.buf }

// DeliveredCount returns how many distinct messages this node has received
// as their destination.
func (n *Node) DeliveredCount() int { return n.delivered.Len() }

// markDelivered records the first arrival of id; it reports whether this
// was indeed the first.
func (n *Node) markDelivered(id bundle.ID) bool { return n.delivered.Add(id) }
