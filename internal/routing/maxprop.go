package routing

import (
	"container/heap"
	"maps"
	"math"
	"sort"

	"vdtn/internal/bundle"
	"vdtn/internal/detmap"
	"vdtn/internal/units"
)

// MaxPropConfig parameterizes the MaxProp router.
type MaxPropConfig struct {
	// InitialThresholdBytes seeds the adaptive hop-count threshold before
	// any transfer statistics exist. Zero means "no head-start zone until
	// the first contacts complete", which matches a cold-started node.
	InitialThresholdBytes units.Bytes
}

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
	cfg MaxPropConfig

	meet        map[int]float64         // own meeting likelihoods, sum 1
	peerVectors map[int]map[int]float64 // node id -> snapshot of its vector
	acked       map[bundle.ID]bool      // delivered-message ids (flooded)

	costCache map[int]float64 // destination -> path cost; nil = stale

	// Adaptive threshold statistics: bytes moved per completed contact.
	bytesMoved   units.Bytes
	contactCount int
}

// NewMaxProp returns a MaxProp router.
func NewMaxProp(cfg MaxPropConfig) *MaxProp {
	mx := &MaxProp{
		cfg:         cfg,
		meet:        make(map[int]float64),
		peerVectors: make(map[int]map[int]float64),
		acked:       make(map[bundle.ID]bool),
	}
	mx.base = newBase(maxPropDrop{mx})
	return mx
}

// Name implements Router.
func (mx *MaxProp) Name() string { return "MaxProp" }

// MeetingLikelihood returns f(self, node), for tests and diagnostics.
func (mx *MaxProp) MeetingLikelihood(node int) float64 { return mx.meet[node] }

// Acked reports whether id is known to be delivered.
func (mx *MaxProp) Acked(id bundle.ID) bool { return mx.acked[id] }

// ContactUp implements Router.
func (mx *MaxProp) ContactUp(now float64, p Peer) {
	mx.buf.Expire(now)
	peerID := p.ID()
	mx.contactCount++

	// Incremental averaging: bump the met peer, re-normalize to sum 1.
	// Both passes walk sorted keys: float addition and division round
	// per-operation, so iteration order would otherwise leak the runtime's
	// map randomization into the likelihoods (and from there into every
	// queue comparison downstream).
	mx.meet[peerID]++
	sum := 0.0
	for _, k := range detmap.Keys(mx.meet) {
		sum += mx.meet[k]
	}
	for _, k := range detmap.Keys(mx.meet) {
		mx.meet[k] /= sum
	}

	if remote, ok := p.Router().(*MaxProp); ok {
		// Exchange routing metadata: snapshot the peer's likelihood vector
		// and union its acknowledgment list into ours.
		snap := make(map[int]float64, len(remote.meet))
		maps.Copy(snap, remote.meet)
		mx.peerVectors[peerID] = snap
		maps.Copy(mx.acked, remote.acked)
		// Delete acked messages: they are already delivered.
		for _, m := range mx.buf.Messages() {
			if mx.acked[m.ID] {
				mx.buf.Remove(m.ID)
			}
		}
	}
	mx.costCache = nil

	mx.queues.set(peerID, mx.buildQueue(now, p))
}

// Refresh implements Router: rebuild the priority queue for p without
// touching meeting likelihoods or exchanging metadata.
func (mx *MaxProp) Refresh(now float64, p Peer) {
	mx.queues.set(p.ID(), mx.buildQueue(now, p))
}

// buildQueue orders candidates for p: messages destined to p first, then
// everything else p should get, in MaxProp priority order.
func (mx *MaxProp) buildQueue(now float64, p Peer) []*bundle.Message {
	peerID := p.ID()
	var deliverable, rest []*bundle.Message
	for _, m := range mx.buf.Messages() {
		switch {
		case p.HasDelivered(m.ID) || mx.acked[m.ID]:
			continue
		case m.To == peerID:
			deliverable = append(deliverable, m)
		case p.Has(m.ID):
			continue
		case m.HasVisited(peerID):
			// Previous-intermediary rule: don't hand a replica back to a
			// node it already passed through.
			continue
		default:
			rest = append(rest, m)
		}
	}
	sortByID(deliverable)
	mx.sortByPriority(rest)
	return append(deliverable, rest...)
}

// sortByPriority orders msgs best-first: below the hop threshold by hop
// count (young messages get their head start), then by delivery cost.
func (mx *MaxProp) sortByPriority(msgs []*bundle.Message) {
	t := mx.hopThreshold()
	cost := func(m *bundle.Message) float64 { return mx.Cost(m.To) }
	sort.SliceStable(msgs, func(i, j int) bool {
		a, b := msgs[i], msgs[j]
		aHead, bHead := a.HopCount < t, b.HopCount < t
		if aHead != bHead {
			return aHead
		}
		if aHead {
			if a.HopCount != b.HopCount {
				return a.HopCount < b.HopCount
			}
			return a.ID < b.ID
		}
		ca, cb := cost(a), cost(b)
		if ca != cb {
			return ca < cb
		}
		return a.ID < b.ID
	})
}

// hopThreshold computes the adaptive head-start threshold: the lowest-hop
// messages totalling min(avg bytes per contact, half the buffer) are the
// protected head-start zone, and the threshold is the first hop count
// beyond it (MaxProp §4.4, reconstructed; see DESIGN.md).
func (mx *MaxProp) hopThreshold() int {
	protect := mx.cfg.InitialThresholdBytes
	if mx.contactCount > 0 {
		protect = mx.bytesMoved / units.Bytes(mx.contactCount)
	}
	if half := mx.buf.Capacity() / 2; protect > half {
		protect = half
	}
	if protect <= 0 {
		return 0
	}
	msgs := mx.buf.Messages()
	sort.SliceStable(msgs, func(i, j int) bool {
		if msgs[i].HopCount != msgs[j].HopCount {
			return msgs[i].HopCount < msgs[j].HopCount
		}
		return msgs[i].ID < msgs[j].ID
	})
	var cum units.Bytes
	for _, m := range msgs {
		cum += m.Size
		if cum >= protect {
			return m.HopCount + 1
		}
	}
	// Everything fits in the protected zone.
	maxHop := 0
	for _, m := range msgs {
		if m.HopCount > maxHop {
			maxHop = m.HopCount
		}
	}
	return maxHop + 1
}

// Cost returns the MaxProp delivery cost to dest: the cheapest path cost
// through the likelihood graph, where hop a->b costs 1 - f_a(b). Lower is
// better; +Inf when dest is unknown.
func (mx *MaxProp) Cost(dest int) float64 {
	if dest == mx.self {
		return 0
	}
	if mx.costCache == nil {
		mx.costCache = mx.dijkstra()
	}
	if c, ok := mx.costCache[dest]; ok {
		return c
	}
	return math.Inf(1)
}

// dijkstra runs cheapest-path over the likelihood graph from self.
func (mx *MaxProp) dijkstra() map[int]float64 {
	vector := func(node int) map[int]float64 {
		if node == mx.self {
			return mx.meet
		}
		return mx.peerVectors[node]
	}
	dist := map[int]float64{mx.self: 0}
	done := map[int]bool{}
	q := &costPQ{{mx.self, 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(costItem)
		if done[it.node] {
			continue
		}
		done[it.node] = true
		// Sorted expansion keeps the heap's insertion sequence — and with
		// it the pop order of equal-cost nodes — identical across runs.
		vec := vector(it.node)
		for _, nb := range detmap.Keys(vec) {
			nd := it.dist + (1 - vec[nb])
			if old, ok := dist[nb]; !ok || nd < old {
				dist[nb] = nd
				heap.Push(q, costItem{nb, nd})
			}
		}
	}
	return dist
}

type costItem struct {
	node int
	dist float64
}

type costPQ []costItem

func (q costPQ) Len() int { return len(q) }
func (q costPQ) Less(i, j int) bool {
	if q[i].dist != q[j].dist {
		return q[i].dist < q[j].dist
	}
	return q[i].node < q[j].node
}
func (q costPQ) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *costPQ) Push(x any)   { *q = append(*q, x.(costItem)) }
func (q *costPQ) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// NextSend implements Router.
func (mx *MaxProp) NextSend(now float64, p Peer) *Send {
	return mx.next(now, p, func(m *bundle.Message) bool {
		return !mx.acked[m.ID] && (m.To == p.ID() || !p.Has(m.ID))
	})
}

// OnSent implements Router.
func (mx *MaxProp) OnSent(now float64, p Peer, s *Send, delivered bool) {
	mx.bytesMoved += s.Msg.Size
	if delivered {
		// Destination reached: flood an acknowledgment and drop our copy.
		mx.acked[s.Msg.ID] = true
		mx.buf.Remove(s.Msg.ID)
	}
}

// OnDelivered records the acknowledgment at the destination itself, so
// acks flood outward from both endpoints of the delivering contact.
func (mx *MaxProp) OnDelivered(now float64, m *bundle.Message) {
	mx.acked[m.ID] = true
}

// Receive implements Router: MaxProp refuses replicas it knows are
// delivered and evicts by its own reverse-priority order.
func (mx *MaxProp) Receive(now float64, m *bundle.Message, from Peer) (bool, []*bundle.Message) {
	if m.Expired(now) || mx.acked[m.ID] {
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
		if mx.acked[m.ID] {
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
