package sim

import (
	"math"

	"vdtn/internal/buffer"
	"vdtn/internal/bundle"
	"vdtn/internal/geo"
	"vdtn/internal/mobility"
	"vdtn/internal/routing"
	"vdtn/internal/wireless"
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

// mobileEntity is what the medium's proximity scan sees of a node: an id
// and a mobility model. A contact pass registers it alone; Node embeds it.
type mobileEntity struct {
	id   int
	mob  mobility.Model
	hint wireless.MotionHint // mob's motion hint, nil if it has none
}

func newMobileEntity(id int, mob mobility.Model) mobileEntity {
	hint, _ := mob.(wireless.MotionHint)
	return mobileEntity{id: id, mob: mob, hint: hint}
}

// ID implements wireless.Entity.
func (e *mobileEntity) ID() int { return e.id }

// Position implements wireless.Entity.
func (e *mobileEntity) Position(now float64) geo.Point { return e.mob.Position(now) }

// StaticUntil implements wireless.MotionHint by forwarding the mobility
// model's hint: the proximity scan skips this entity while its position
// is pinned (a stationary relay forever, a paused walker until the pause
// ends). Models without the hint never promise stillness.
func (e *mobileEntity) StaticUntil(now float64) float64 {
	if e.hint != nil {
		return e.hint.StaticUntil(now)
	}
	return now
}

// MaxSpeed implements wireless.MotionHint by forwarding the mobility
// model's speed bound, which lets the scan leave a driving vehicle
// unqueried while nothing can reach it. Models without the hint are
// unbounded.
func (e *mobileEntity) MaxSpeed() float64 {
	if e.hint != nil {
		return e.hint.MaxSpeed()
	}
	return math.Inf(1)
}

// Node is one network participant: mobility + buffer + router + the
// delivery bookkeeping of the node as a destination.
type Node struct {
	mobileEntity
	kind   Kind
	buf    *buffer.Store
	router routing.Router

	// delivered is the set of message ids this node received as
	// destination; the node refuses duplicates forever after.
	delivered bundle.IDSet

	// peer is the view of this node that every router meeting it sees.
	peer routing.Peer
}

func newNode(id int, kind Kind, mob mobility.Model, buf *buffer.Store, r routing.Router) *Node {
	n := &Node{
		mobileEntity: newMobileEntity(id, mob),
		kind:         kind,
		buf:          buf,
		router:       r,
	}
	n.peer = routing.NewPeer(id, buf, &n.delivered, r)
	r.Attach(id, buf)
	return n
}

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
