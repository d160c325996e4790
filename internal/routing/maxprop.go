package routing

import (
	"cmp"
	"math"

	"vdtn/internal/bundle"
	"vdtn/internal/units"
)

// MaxProp implements the router of Burgess et al. (INFOCOM 2006), built
// from the mechanisms the paper's §II lists: incremental-averaging meeting
// likelihoods exchanged at contacts, cheapest-path delivery costs over
// those likelihoods, an adaptive hop-count head-start for young messages,
// acknowledgment flooding for delivered messages, and visited-node lists
// to avoid re-forwarding to previous intermediaries. MaxProp schedules
// *and* drops by the same priority order (drops from the low-priority
// tail), so it takes no external scheduling/dropping policy.
type MaxProp struct {
	base

	meet  []float64    // own meeting likelihoods by node id, sum 1; unmet if never met
	peers [][]float64  // node id -> snapshot of its meet vector; nil if none
	acked bundle.IDSet // delivered-message ids (flooded)

	cost  []float64 // path cost by destination id, +Inf if unreachable; empty = stale
	final []bool    // dijkstra's finalized nodes

	// Adaptive threshold statistics: bytes moved per completed contact.
	bytesMoved   units.Bytes
	contactCount int
	hopBytes     []units.Bytes // hopThreshold's tally: buffered bytes by hop count
}

// unmet marks a node never met in a likelihood vector. A met node's
// likelihood can halve down to 0.0 and it still counts as an edge, so 0
// cannot be the marker.
const unmet = -1.0

// NewMaxProp returns a MaxProp router. Like a cold-started node, it has
// no head-start zone until its contacts have moved bytes.
func NewMaxProp() *MaxProp {
	mx := &MaxProp{}
	mx.base = newBase(maxPropDrop{mx})
	return mx
}

// Name implements Router.
func (mx *MaxProp) Name() string { return "MaxProp" }

// MeetingLikelihood returns f(self, node), 0 if never met, for tests and
// diagnostics.
func (mx *MaxProp) MeetingLikelihood(node int) float64 { return max(at(mx.meet, node, 0), 0) }

// Acked reports whether id is known to be delivered.
func (mx *MaxProp) Acked(id bundle.ID) bool { return mx.acked.Has(id) }

// ContactUp implements Router.
func (mx *MaxProp) ContactUp(now float64, p Peer) {
	mx.buf.Expire(now)
	peerID := p.ID()
	mx.contactCount++

	// Incremental averaging: bump the met peer, re-normalize to sum 1.
	// The sum runs in id order: float addition rounds per operation, so
	// the order is part of the result.
	mx.meet = widen(mx.meet, peerID+1, unmet)
	mx.meet[peerID] = max(mx.meet[peerID], 0) + 1
	sum := 0.0
	for _, f := range mx.meet {
		if f != unmet {
			sum += f
		}
	}
	for i, f := range mx.meet {
		if f != unmet {
			mx.meet[i] = f / sum
		}
	}

	if remote, ok := p.Router().(*MaxProp); ok {
		// Exchange routing metadata: snapshot the peer's likelihood vector
		// and union its acknowledgment list into ours.
		mx.peers = widen(mx.peers, peerID+1, nil)
		mx.peers[peerID] = append(mx.peers[peerID][:0], remote.meet...)
		mx.acked.Union(&remote.acked)
		// Delete acked messages: they are already delivered.
		for _, m := range mx.buf.Messages() {
			if mx.acked.Has(m.ID) {
				mx.buf.Remove(m.ID)
			}
		}
	}
	mx.cost = mx.cost[:0]
	mx.Refresh(now, p)
}

// Refresh implements Router: rebuild the priority queue for p without
// touching meeting likelihoods or exchanging metadata. Messages destined
// to p go first; the rest follow in MaxProp priority order, except those
// known to be delivered and those that already passed through p (the
// previous-intermediary rule). An acked replica destined to p may be
// queued; NextSend skips it.
func (mx *MaxProp) Refresh(now float64, p Peer) {
	mx.requeue(p, func(m *bundle.Message) bool {
		return !mx.acked.Has(m.ID) && !m.HasVisited(p.ID())
	}, mx.priority())
}

// priority returns the MaxProp order, best first: below the hop
// threshold by hop count (young messages get their head start), then by
// delivery cost, ties by id.
func (mx *MaxProp) priority() func(a, b *bundle.Message) int {
	t := mx.hopThreshold()
	return func(a, b *bundle.Message) int {
		aHead, bHead := a.HopCount < t, b.HopCount < t
		switch {
		case aHead && !bHead:
			return -1
		case bHead && !aHead:
			return 1
		case aHead:
			return byHops(a, b)
		}
		return cmp.Or(cmp.Compare(mx.Cost(a.To), mx.Cost(b.To)), byID(a, b))
	}
}

func byHops(a, b *bundle.Message) int { return cmp.Or(cmp.Compare(a.HopCount, b.HopCount), byID(a, b)) }

// hopThreshold computes the adaptive head-start threshold: the lowest-hop
// messages totalling min(avg bytes per contact, half the buffer) are the
// protected head-start zone, and the threshold is the first hop count
// beyond it (MaxProp §4.4, reconstructed). That is 1 + the smallest hop
// count h whose replicas at <= h hops total at least the zone, or the
// largest hop count + 1 if none does. The byte sums are integers, so a
// tally by hop count finds h exactly without sorting the buffer.
func (mx *MaxProp) hopThreshold() int {
	if mx.contactCount == 0 {
		return 0
	}
	protect := min(mx.bytesMoved/units.Bytes(mx.contactCount), mx.buf.Capacity()/2)
	if protect <= 0 {
		return 0
	}
	tally := mx.hopBytes[:0]
	for _, m := range mx.buf.Sorted() {
		tally = widen(tally, m.HopCount+1, 0)
		tally[m.HopCount] += m.Size
	}
	mx.hopBytes = tally
	var cum units.Bytes
	for h, b := range tally {
		if cum += b; cum >= protect {
			return h + 1
		}
	}
	return max(len(tally), 1) // everything fits in the protected zone
}

// Cost returns the MaxProp delivery cost to dest: the cheapest path cost
// through the likelihood graph, where hop a->b costs 1 - f_a(b). Lower is
// better; +Inf when dest is unknown.
func (mx *MaxProp) Cost(dest int) float64 {
	if dest == mx.self {
		return 0
	}
	if len(mx.cost) == 0 {
		mx.dijkstra()
	}
	return at(mx.cost, dest, math.Inf(1))
}

// dijkstra fills mx.cost with the cheapest path costs from self. Each
// round scans the array for the next node to finalize, in (cost, id)
// order, and relaxes the edges to every node its vector has met.
func (mx *MaxProp) dijkstra() {
	n := max(len(mx.meet), mx.self+1)
	for _, v := range mx.peers {
		n = max(n, len(v))
	}
	mx.cost = widen(mx.cost[:0], n, math.Inf(1))
	mx.final = widen(mx.final[:0], n, false)
	mx.cost[mx.self] = 0
	for {
		u := -1
		for v, c := range mx.cost {
			if !mx.final[v] && !math.IsInf(c, 1) && (u < 0 || c < mx.cost[u]) {
				u = v
			}
		}
		if u < 0 {
			return
		}
		mx.final[u] = true
		vec := at(mx.peers, u, nil)
		if u == mx.self {
			vec = mx.meet
		}
		for v, f := range vec {
			if c := mx.cost[u] + (1 - f); f != unmet && c < mx.cost[v] {
				mx.cost[v] = c
			}
		}
	}
}

// NextSend implements Router.
func (mx *MaxProp) NextSend(now float64, p Peer) *Send {
	return mx.next(now, p, func(m *bundle.Message) bool {
		return !mx.acked.Has(m.ID) && (m.To == p.ID() || !p.Has(m.ID))
	})
}

// OnSent implements Router.
func (mx *MaxProp) OnSent(now float64, p Peer, s *Send, delivered bool) {
	mx.bytesMoved += s.Msg.Size
	if delivered {
		// Destination reached: flood an acknowledgment and drop our copy.
		mx.acked.Add(s.Msg.ID)
		mx.buf.Remove(s.Msg.ID)
	}
}

// OnDelivered records the acknowledgment at the destination itself, so
// acks flood outward from both endpoints of the delivering contact.
func (mx *MaxProp) OnDelivered(now float64, m *bundle.Message) {
	mx.acked.Add(m.ID)
}

// Receive implements Router: MaxProp refuses replicas it knows are
// delivered and evicts by its own reverse-priority order.
func (mx *MaxProp) Receive(now float64, m *bundle.Message, from Peer) (bool, []*bundle.Message) {
	if m.Expired(now) || mx.acked.Has(m.ID) {
		return false, nil
	}
	mx.bytesMoved += m.Size
	return mx.store(now, m)
}

// maxPropDrop evicts in reverse MaxProp priority: known-delivered replicas
// first, then messages past the hop threshold with the *highest* delivery
// cost, then head-start messages with the highest hop count.
type maxPropDrop struct{ mx *MaxProp }

// Name implements core.DropPolicy.
func (maxPropDrop) Name() string { return "MaxProp" }

// Victim implements core.DropPolicy.
func (d maxPropDrop) Victim(now float64, msgs []*bundle.Message) int {
	mx := d.mx
	for i, m := range msgs {
		if mx.acked.Has(m.ID) {
			return i
		}
	}
	t := mx.hopThreshold()
	worst := 0
	for i := 1; i < len(msgs); i++ {
		if d.worse(msgs[i], msgs[worst], t) {
			worst = i
		}
	}
	return worst
}

// worse reports whether a is a better eviction victim than b.
func (d maxPropDrop) worse(a, b *bundle.Message, t int) bool {
	aHead, bHead := a.HopCount < t, b.HopCount < t
	if aHead != bHead {
		return !aHead // above-threshold messages go first
	}
	if !aHead {
		ca, cb := d.mx.Cost(a.To), d.mx.Cost(b.To)
		if ca != cb {
			return ca > cb // highest cost dropped first
		}
		return a.ID > b.ID
	}
	if a.HopCount != b.HopCount {
		return a.HopCount > b.HopCount
	}
	return a.ID > b.ID
}
