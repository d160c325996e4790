package routing

import (
	"cmp"
	"math"
	"slices"

	"vdtn/internal/buffer"
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
//
// The router has its buffer keep the MaxProp order (buffer.Store.SortBy),
// so a Refresh walks the ordered entries, reading a replica only when its
// key leaves it in play, instead of copying and sorting the buffer per
// peer. That order reads the cost epoch and the
// hop threshold, so the buffer is re-sorted in place (Resort) when a
// ContactUp starts a new cost epoch and when a Refresh finds the
// threshold moved.
type MaxProp struct {
	base

	meet  []float64    // own meeting likelihoods by node id, sum 1; unmet if never met
	peers [][]float64  // node id -> edge weights from its last meet vector; nil if none
	acked bundle.IDSet // delivered-message ids (flooded)

	cost []float64 // path cost by destination id, +Inf if unreachable; empty = stale
	tent []float64 // dijkstra's tentative costs, +Inf once a node is final
	own  []float64 // dijkstra's edge weights out of self, rebuilt from meet

	threshold int // the hop threshold the buffer is sorted under; -1 = stale

	// Adaptive threshold statistics: bytes moved per completed contact.
	bytesMoved   units.Bytes
	contactCount int
	hopBytes     []units.Bytes // hopThreshold's tally: buffered bytes by hop count
}

// unmet marks a node never met in a likelihood vector. A met node's
// likelihood can halve down to 0.0 and it still counts as an edge, so 0
// cannot be the marker.
const unmet = -1.0

// weights turns a copy of a likelihood vector, in place, into the edges
// it gives the likelihood graph: the cost 1 - f of a hop, or +Inf, no
// edge, where f is unmet.
func weights(v []float64) []float64 {
	for i, f := range v {
		if f == unmet {
			v[i] = math.Inf(1)
		} else {
			v[i] = 1 - f
		}
	}
	return v
}

// NewMaxProp returns a MaxProp router. Like a cold-started node, it has
// no head-start zone until its contacts have moved bytes.
func NewMaxProp() *MaxProp {
	mx := &MaxProp{}
	mx.base = newBase(maxPropDrop{mx})
	return mx
}

// Name implements Router.
func (mx *MaxProp) Name() string { return "MaxProp" }

// Attach implements Router and has buf keep the MaxProp order.
func (mx *MaxProp) Attach(self int, buf *buffer.Store) {
	mx.base.Attach(self, buf)
	buf.SortBy(mx.compare)
}

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
		// Exchange routing metadata: snapshot the peer's likelihood vector,
		// as edge weights, and union its acknowledgment list into ours.
		mx.peers = widen(mx.peers, peerID+1, nil)
		mx.peers[peerID] = weights(append(mx.peers[peerID][:0], remote.meet...))
		mx.acked.Union(&remote.acked)
		// Delete acked messages: they are already delivered.
		mx.buf.RemoveFunc(func(m *bundle.Message) bool { return mx.acked.Has(m.ID) })
	}
	// A new cost epoch: the buffer's order is stale until Refresh
	// re-sorts it, and nothing compares replicas before then.
	mx.cost = mx.cost[:0]
	mx.threshold = -1
	mx.Refresh(now, p)
}

// Refresh implements Router: rebuild the priority queue for p without
// touching meeting likelihoods or exchanging metadata. Messages destined
// to p go first, by id; the rest follow in MaxProp priority order, except
// those known to be delivered and those that already passed through p
// (the previous-intermediary rule). An acked replica destined to p may be
// queued; NextSend skips it. The order is total, so filtering the sorted
// buffer equals sorting the filtered replicas.
func (mx *MaxProp) Refresh(now float64, p Peer) {
	if t := mx.hopThreshold(); t != mx.threshold {
		mx.threshold = t
		mx.buf.Resort()
	}
	deliv, rest := mx.groups(p.id)
	for _, e := range mx.buf.Sorted() {
		switch {
		case p.HasDelivered(e.ID()):
		case e.To() == p.id:
			deliv = append(deliv, e.Msg())
		case !p.Has(e.ID()) && !mx.acked.Has(e.ID()) && !e.Msg().HasVisited(p.id):
			rest = append(rest, e.Msg())
		}
	}
	slices.SortFunc(deliv, byID)
	mx.queue(p.id, deliv, rest)
}

// compare is the order the buffer keeps: order under the threshold the
// buffer was last sorted by.
func (mx *MaxProp) compare(a, b *bundle.Message) int { return mx.order(a, b, mx.threshold) }

// order is the MaxProp priority order under hop threshold t, best first:
// below t by hop count (young messages get their head start), then by
// delivery cost, ties by id. Eviction takes the worst.
func (mx *MaxProp) order(a, b *bundle.Message, t int) int {
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
	for _, e := range mx.buf.Sorted() {
		m := e.Msg()
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
// round finalizes the node lowest in (tentative cost, id) order, which
// then reads +Inf in tent, and relaxes its row of edge weights. The
// weights lie in [0, 1], so no path through the node just finalized is
// cheaper than a node finalized before it: a final node is never relaxed.
func (mx *MaxProp) dijkstra() {
	n := max(len(mx.meet), mx.self+1)
	for _, row := range mx.peers {
		n = max(n, len(row))
	}
	mx.own = weights(append(mx.own[:0], mx.meet...))
	inf := math.Inf(1)
	cost := widen(mx.cost[:0], n, inf)
	tent := widen(mx.tent[:0], n, inf)
	cost[mx.self], tent[mx.self] = 0, 0
	for {
		u, cu := -1, inf
		for v, c := range tent {
			if c < cu {
				u, cu = v, c
			}
		}
		if u < 0 {
			break
		}
		tent[u] = inf
		row := at(mx.peers, u, nil)
		if u == mx.self {
			row = mx.own
		}
		for v, w := range row {
			if c := cu + w; c < cost[v] {
				cost[v], tent[v] = c, c
			}
		}
	}
	mx.cost, mx.tent = cost, tent
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

// maxPropDrop evicts in reverse MaxProp priority, the last replica in
// order under the current hop threshold: known-delivered replicas first,
// then messages past the hop threshold with the *highest* delivery cost,
// then head-start messages with the highest hop count.
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
		if mx.order(msgs[i], msgs[worst], t) > 0 {
			worst = i
		}
	}
	return worst
}
