// Package bundle models DTN messages ("bundles" in RFC 4838 terms): the
// unit of data that is created at a source vehicle, stored and carried in
// node buffers, replicated at contact opportunities, and either delivered
// to its destination or dropped on buffer overflow or TTL expiry.
//
// A Message value represents one *replica*. Replication copies the message
// (Clone), so per-replica state — the buffer arrival time FIFO policies key
// on, the Spray-and-Wait copy budget, the hop count and the set of nodes
// visited — evolves independently at each carrying node, exactly as it
// does in a real store-carry-forward network. The visited set is a
// NodeSet: for node ids below 64, forwarding a replica allocates the
// replica and nothing else.
package bundle

import (
	"fmt"

	"vdtn/internal/units"
)

// ID identifies a message (not a replica: all replicas share the ID).
type ID int64

// String renders the id in the ONE simulator's "M<n>" style.
func (id ID) String() string { return fmt.Sprintf("M%d", int64(id)) }

// Message is one replica of a DTN bundle.
type Message struct {
	ID   ID
	From int // source node id
	To   int // destination node id

	Size    units.Bytes
	Created float64 // creation time at the source, sim seconds
	TTL     float64 // lifetime from creation, seconds

	// Per-replica state.
	ReceivedAt float64 // when this replica entered the current node's buffer
	HopCount   int     // hops traversed from the source to the current node
	Copies     int     // Spray-and-Wait logical copy budget held by this replica
	Forwards   int     // times the current node relayed this replica onward
	Visited    NodeSet // node ids this replica passed through, source included
}

// New creates the original replica of a message at its source.
// The source is recorded as a visited node.
func New(id ID, from, to int, size units.Bytes, created, ttl float64) *Message {
	if size <= 0 {
		panic(fmt.Sprintf("bundle: message %v with non-positive size %d", id, size))
	}
	if ttl <= 0 {
		panic(fmt.Sprintf("bundle: message %v with non-positive TTL %v", id, ttl))
	}
	m := &Message{
		ID:         id,
		From:       from,
		To:         to,
		Size:       size,
		Created:    created,
		TTL:        ttl,
		ReceivedAt: created,
		Copies:     1,
	}
	m.Visited.Add(from)
	return m
}

// Clone returns an independent replica: identical message identity and
// content, deep-copied per-replica state. The caller adjusts ReceivedAt,
// HopCount, Copies and Visited for the receiving node.
func (m *Message) Clone() *Message {
	c := *m
	c.Visited = m.Visited.clone()
	return &c
}

// ForwardTo returns the replica as it arrives at node `at` at time now:
// hop count incremented, node added to the visited set, buffer arrival
// stamped. The copy budget is left at the original value; routers that
// split budgets (Spray and Wait) adjust it afterwards.
func (m *Message) ForwardTo(at int, now float64) *Message {
	c := m.Clone()
	c.HopCount++
	c.ReceivedAt = now
	c.Forwards = 0 // the receiving node has not relayed it yet
	c.Visited.Add(at)
	return c
}

// ExpiresAt returns the absolute time the message's TTL runs out.
func (m *Message) ExpiresAt() float64 { return m.Created + m.TTL }

// RemainingTTL returns the lifetime left at time now; negative once expired.
// This is the quantity the paper's Lifetime DESC / Lifetime ASC policies
// order by.
func (m *Message) RemainingTTL(now float64) float64 { return m.ExpiresAt() - now }

// Expired reports whether the TTL has run out at time now.
func (m *Message) Expired(now float64) bool { return now >= m.ExpiresAt() }

// Age returns the time since creation.
func (m *Message) Age(now float64) float64 { return now - m.Created }

// HasVisited reports whether the replica passed through node id.
// MaxProp uses this to avoid re-forwarding to previous intermediaries.
func (m *Message) HasVisited(id int) bool { return m.Visited.Has(id) }

// String renders a compact debug form.
func (m *Message) String() string {
	return fmt.Sprintf("%v[%d->%d %v ttl=%s]",
		m.ID, m.From, m.To, m.Size, units.FormatDuration(m.TTL))
}

// Factory mints sequential message IDs for one simulation run.
type Factory struct {
	next ID
}

// NewFactory returns a factory starting at M1.
func NewFactory() *Factory { return &Factory{next: 1} }

// NextID returns a fresh unique id.
func (f *Factory) NextID() ID {
	id := f.next
	f.next++
	return id
}

// Minted returns how many ids have been handed out.
func (f *Factory) Minted() int64 { return int64(f.next) - 1 }
