package routing

import (
	"container/heap"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"testing"

	"vdtn/internal/buffer"
	"vdtn/internal/bundle"
	"vdtn/internal/core"
	"vdtn/internal/units"
	"vdtn/internal/xrand"
)

// This file keeps MaxProp and PRoPHET as they were when they held their
// node tables in maps: map-based likelihoods, peer snapshots and acks, a
// container/heap Dijkstra, map-based predictabilities, and a queue
// builder per router sorted with sort.SliceStable. They are the
// bit-for-bit references for the dense-table routers: the tests below
// drive both through the same contact sequences and compare every
// likelihood, cost, predictability and send exactly.

type refMaxProp struct {
	base

	meet        map[int]float64
	peerVectors map[int]map[int]float64
	acked       map[bundle.ID]bool
	costCache   map[int]float64

	bytesMoved   units.Bytes
	contactCount int
}

func newRefMaxProp() *refMaxProp {
	mx := &refMaxProp{
		meet:        make(map[int]float64),
		peerVectors: make(map[int]map[int]float64),
		acked:       make(map[bundle.ID]bool),
	}
	mx.base = newBase(refMaxPropDrop{mx})
	return mx
}

func (mx *refMaxProp) Name() string                       { return "MaxProp" }
func (mx *refMaxProp) MeetingLikelihood(node int) float64 { return mx.meet[node] }

func (mx *refMaxProp) ContactUp(now float64, p Peer) {
	mx.buf.Expire(now)
	peerID := p.ID()
	mx.contactCount++
	mx.meet[peerID]++
	sum := 0.0
	for _, k := range slices.Sorted(maps.Keys(mx.meet)) {
		sum += mx.meet[k]
	}
	for _, k := range slices.Sorted(maps.Keys(mx.meet)) {
		mx.meet[k] /= sum
	}
	if remote, ok := p.Router().(*refMaxProp); ok {
		snap := make(map[int]float64, len(remote.meet))
		maps.Copy(snap, remote.meet)
		mx.peerVectors[peerID] = snap
		maps.Copy(mx.acked, remote.acked)
		for _, m := range mx.buf.Messages() {
			if mx.acked[m.ID] {
				mx.buf.Remove(m.ID)
			}
		}
	}
	mx.costCache = nil
	mx.queues.set(peerID, mx.buildQueue(now, p))
}

func (mx *refMaxProp) Refresh(now float64, p Peer) {
	mx.queues.set(p.ID(), mx.buildQueue(now, p))
}

func (mx *refMaxProp) buildQueue(now float64, p Peer) []*bundle.Message {
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
			continue
		default:
			rest = append(rest, m)
		}
	}
	refSortByID(deliverable)
	mx.sortByPriority(rest)
	return append(deliverable, rest...)
}

func (mx *refMaxProp) sortByPriority(msgs []*bundle.Message) {
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

func (mx *refMaxProp) hopThreshold() int {
	var protect units.Bytes
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
	maxHop := 0
	for _, m := range msgs {
		if m.HopCount > maxHop {
			maxHop = m.HopCount
		}
	}
	return maxHop + 1
}

func (mx *refMaxProp) Cost(dest int) float64 {
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

func (mx *refMaxProp) dijkstra() map[int]float64 {
	vector := func(node int) map[int]float64 {
		if node == mx.self {
			return mx.meet
		}
		return mx.peerVectors[node]
	}
	dist := map[int]float64{mx.self: 0}
	done := map[int]bool{}
	q := &refCostPQ{{mx.self, 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(refCostItem)
		if done[it.node] {
			continue
		}
		done[it.node] = true
		vec := vector(it.node)
		for _, nb := range slices.Sorted(maps.Keys(vec)) {
			nd := it.dist + (1 - vec[nb])
			if old, ok := dist[nb]; !ok || nd < old {
				dist[nb] = nd
				heap.Push(q, refCostItem{nb, nd})
			}
		}
	}
	return dist
}

type refCostItem struct {
	node int
	dist float64
}

type refCostPQ []refCostItem

func (q refCostPQ) Len() int { return len(q) }
func (q refCostPQ) Less(i, j int) bool {
	if q[i].dist != q[j].dist {
		return q[i].dist < q[j].dist
	}
	return q[i].node < q[j].node
}
func (q refCostPQ) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refCostPQ) Push(x any)   { *q = append(*q, x.(refCostItem)) }
func (q *refCostPQ) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

func (mx *refMaxProp) NextSend(now float64, p Peer) *Send {
	return mx.next(now, p, func(m *bundle.Message) bool {
		return !mx.acked[m.ID] && (m.To == p.ID() || !p.Has(m.ID))
	})
}

func (mx *refMaxProp) OnSent(now float64, p Peer, s *Send, delivered bool) {
	mx.bytesMoved += s.Msg.Size
	if delivered {
		mx.acked[s.Msg.ID] = true
		mx.buf.Remove(s.Msg.ID)
	}
}

func (mx *refMaxProp) OnDelivered(now float64, m *bundle.Message) { mx.acked[m.ID] = true }

func (mx *refMaxProp) Receive(now float64, m *bundle.Message, from Peer) (bool, []*bundle.Message) {
	if m.Expired(now) || mx.acked[m.ID] {
		return false, nil
	}
	mx.bytesMoved += m.Size
	return mx.store(now, m)
}

type refMaxPropDrop struct{ mx *refMaxProp }

func (refMaxPropDrop) Name() string { return "MaxProp" }

func (d refMaxPropDrop) Victim(now float64, msgs []*bundle.Message) int {
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

func (d refMaxPropDrop) worse(a, b *bundle.Message, t int) bool {
	aHead, bHead := a.HopCount < t, b.HopCount < t
	if aHead != bHead {
		return !aHead
	}
	if !aHead {
		ca, cb := d.mx.Cost(a.To), d.mx.Cost(b.To)
		if ca != cb {
			return ca > cb
		}
		return a.ID > b.ID
	}
	if a.HopCount != b.HopCount {
		return a.HopCount > b.HopCount
	}
	return a.ID > b.ID
}

type refProphet struct {
	base
	cfg      ProphetConfig
	preds    map[int]float64
	lastAged float64
}

// newRefProphet takes a config NewProphet has already validated and
// filled with defaults.
func newRefProphet(cfg ProphetConfig) *refProphet {
	return &refProphet{base: newBase(cfg.Drop), cfg: cfg, preds: make(map[int]float64)}
}

func (pr *refProphet) Name() string { return "PRoPHET" }

func (pr *refProphet) Predictability(now float64, dest int) float64 {
	pr.age(now)
	return pr.preds[dest]
}

func (pr *refProphet) age(now float64) {
	elapsed := now - pr.lastAged
	if elapsed <= 0 {
		return
	}
	factor := math.Pow(pr.cfg.Gamma, elapsed/pr.cfg.TimeUnit)
	for d, p := range pr.preds {
		p *= factor
		if p < 1e-6 {
			delete(pr.preds, d)
		} else {
			pr.preds[d] = p
		}
	}
	pr.lastAged = now
}

func (pr *refProphet) ContactUp(now float64, p Peer) {
	pr.buf.Expire(now)
	pr.age(now)
	peerID := p.ID()
	pr.preds[peerID] += (1 - pr.preds[peerID]) * pr.cfg.PInit
	if remote, ok := p.Router().(*refProphet); ok {
		remote.age(now)
		pab := pr.preds[peerID]
		for d, pbd := range remote.preds {
			if d == pr.self {
				continue
			}
			pr.preds[d] += (1 - pr.preds[d]) * pab * pbd * pr.cfg.Beta
		}
	}
	pr.Refresh(now, p)
}

func (pr *refProphet) Refresh(now float64, p Peer) {
	peerID := p.ID()
	if remote, ok := p.Router().(*refProphet); ok {
		pr.queues.set(peerID, pr.grtrMaxQueue(now, p, remote))
		return
	}
	var deliverable []*bundle.Message
	for _, m := range pr.buf.Messages() {
		if m.To == peerID && !p.HasDelivered(m.ID) {
			deliverable = append(deliverable, m)
		}
	}
	refSortByID(deliverable)
	pr.queues.set(peerID, deliverable)
}

func (pr *refProphet) grtrMaxQueue(now float64, p Peer, remote *refProphet) []*bundle.Message {
	peerID := p.ID()
	var deliverable, offers []*bundle.Message
	for _, m := range pr.buf.Messages() {
		switch {
		case p.HasDelivered(m.ID):
			continue
		case m.To == peerID:
			deliverable = append(deliverable, m)
		case p.Has(m.ID):
			continue
		case remote.preds[m.To] > pr.preds[m.To]:
			offers = append(offers, m)
		}
	}
	refSortByID(deliverable)
	sort.SliceStable(offers, func(i, j int) bool {
		pi, pj := remote.preds[offers[i].To], remote.preds[offers[j].To]
		if pi != pj {
			return pi > pj
		}
		return offers[i].ID < offers[j].ID
	})
	return append(deliverable, offers...)
}

func (pr *refProphet) NextSend(now float64, p Peer) *Send {
	return pr.next(now, p, func(m *bundle.Message) bool { return m.To == p.ID() || !p.Has(m.ID) })
}

func refSortByID(msgs []*bundle.Message) {
	sort.SliceStable(msgs, func(i, j int) bool { return msgs[i].ID < msgs[j].ID })
}

// --- the harness -----------------------------------------------------------

// nodeKind is the protocol a harness node runs; kindOther is Epidemic,
// a peer MaxProp and PRoPHET exchange no metadata with.
type nodeKind int

const (
	kindMaxProp nodeKind = iota
	kindProphet
	kindOther
)

// refNet is a small network of routers behind fake peers: the dense-table
// routers, or the references when ref is set. It logs every observable
// value in order, so two nets fed the same operations can be compared
// line by line.
type refNet struct {
	nodes []Peer
	open  [][]bool
	now   float64
	log   []string
}

func newRefNet(kinds []nodeKind, ref bool, pc ProphetConfig, capacity units.Bytes) *refNet {
	n := &refNet{open: make([][]bool, len(kinds))}
	for id, k := range kinds {
		var r Router
		switch {
		case k == kindMaxProp && ref:
			r = newRefMaxProp()
		case k == kindMaxProp:
			r = NewMaxProp()
		case k == kindProphet && ref:
			r = newRefProphet(NewProphet(pc).cfg)
		case k == kindProphet:
			r = NewProphet(pc)
		default:
			r = NewEpidemic(core.FIFOFIFO())
		}
		buf := buffer.NewStore(capacity)
		r.Attach(id, buf)
		n.nodes = append(n.nodes, NewPeer(id, buf, new(bundle.IDSet), r))
		n.open[id] = make([]bool, len(kinds))
	}
	return n
}

func (n *refNet) logf(format string, args ...any) {
	n.log = append(n.log, fmt.Sprintf("t=%v ", n.now)+fmt.Sprintf(format, args...))
}

// observe logs a's table for every id from -1 to one past the last node,
// as exact bit patterns.
func (n *refNet) observe(a int) {
	type likelihoods interface {
		MeetingLikelihood(int) float64
		Cost(int) float64
	}
	type predictabilities interface {
		Predictability(float64, int) float64
	}
	for k := -1; k <= len(n.nodes); k++ {
		switch r := n.nodes[a].router.(type) {
		case likelihoods:
			n.logf("%d f(%d)=%x cost(%d)=%x", a, k, math.Float64bits(r.MeetingLikelihood(k)), k, math.Float64bits(r.Cost(k)))
		case predictabilities:
			n.logf("%d P(%d)=%x", a, k, math.Float64bits(r.Predictability(n.now, k)))
		}
	}
}

func (n *refNet) up(a, b int) {
	n.open[a][b], n.open[b][a] = true, true
	n.nodes[a].router.ContactUp(n.now, n.nodes[b])
	n.nodes[b].router.ContactUp(n.now, n.nodes[a])
	n.observe(a)
	n.observe(b)
}

func (n *refNet) down(a, b int) {
	n.open[a][b], n.open[b][a] = false, false
	n.nodes[a].router.ContactDown(n.now, n.nodes[b])
	n.nodes[b].router.ContactDown(n.now, n.nodes[a])
}

// refresh rebuilds a's queues towards its open contacts, as the
// simulator does when a's buffer gains a replica mid-contact.
func (n *refNet) refresh(a int) {
	for b, open := range n.open[a] {
		if open {
			n.nodes[a].router.Refresh(n.now, n.nodes[b])
		}
	}
}

func (n *refNet) add(a int, m *bundle.Message) {
	ok, evicted := n.nodes[a].router.AddMessage(n.now, m)
	n.logf("%d add %v ok=%v evicted=%v", a, m.ID, ok, msgIDs(evicted))
	n.refresh(a)
}

// deliveryObserver is the hook the simulator calls at a destination.
type deliveryObserver interface {
	OnDelivered(now float64, m *bundle.Message)
}

// send pops a's next send to b and completes it, or aborts it when abort
// is set. It reports whether there was one.
func (n *refNet) send(a, b int, abort bool) bool {
	from, to := n.nodes[a], n.nodes[b]
	s := from.router.NextSend(n.now, to)
	if s == nil {
		n.logf("%d->%d none", a, b)
		return false
	}
	n.logf("%d->%d %v abort=%v", a, b, s.Msg.ID, abort)
	if abort {
		from.router.OnAbort(n.now, to, s)
		return true
	}
	wire := s.Msg.ForwardTo(b, n.now)
	delivered := wire.To == b
	if delivered {
		to.delivered.Add(wire.ID)
		if obs, ok := to.router.(deliveryObserver); ok {
			obs.OnDelivered(n.now, wire)
		}
	} else {
		ok, evicted := to.router.Receive(n.now, wire, from)
		n.logf("%d receive %v ok=%v evicted=%v", b, wire.ID, ok, msgIDs(evicted))
		if ok {
			n.refresh(b)
		}
	}
	from.router.OnSent(n.now, to, s, delivered)
	return true
}

// exchange alternates up to k sends each way between a and b.
func (n *refNet) exchange(a, b, k int, rng *xrand.Rand) {
	for range k {
		moreA := n.send(a, b, rng.IntN(8) == 0)
		moreB := n.send(b, a, rng.IntN(8) == 0)
		if !moreA && !moreB {
			return
		}
	}
}

// randomRun drives n with a seeded random mix of contacts, transfers,
// new messages and idle time. Node len(kinds)-1 is never met.
func randomRun(n *refNet, seed uint64, steps int) {
	rng := xrand.New(seed)
	met := len(n.nodes) - 1
	ids := rng.Perm(4 * steps) // message ids in no particular order
	for step := range steps {
		n.now += rng.UniformFloat(0, 60)
		a, b := rng.IntN(met), rng.IntN(met)
		switch op := rng.IntN(10); {
		case op < 3 && a != b && !n.open[a][b]:
			n.up(a, b)
			n.exchange(a, b, rng.IntN(10), rng)
		case op < 5 && a != b && n.open[a][b]:
			n.exchange(a, b, 1+rng.IntN(4), rng)
		case op < 7 && a != b && n.open[a][b]:
			n.down(a, b)
		case op < 9:
			to := rng.IntN(met + 1) // may be the node never met
			if to == a {
				to = (a + 1) % met
			}
			m := bundle.New(bundle.ID(1+ids[step]), a, to, units.KB(float64(50+rng.IntN(250))), n.now, rng.UniformFloat(600, 7200))
			n.add(a, m)
		default:
			n.observe(a)
		}
	}
}

// compareNets fails at the first line where the two logs differ.
func compareNets(t *testing.T, got, want *refNet) {
	t.Helper()
	for i := range min(len(got.log), len(want.log)) {
		if got.log[i] != want.log[i] {
			t.Fatalf("line %d: got %q, reference %q", i, got.log[i], want.log[i])
		}
	}
	if len(got.log) != len(want.log) {
		t.Fatalf("got %d lines, reference %d", len(got.log), len(want.log))
	}
}

// TestDenseTablesMatchReferenceRandomContacts runs the dense-table
// routers and their map-based references through random contact
// sequences over a mixed network: MaxProp, PRoPHET and Epidemic nodes
// meet in every combination, and one id is never met.
func TestDenseTablesMatchReferenceRandomContacts(t *testing.T) {
	kinds := []nodeKind{kindMaxProp, kindProphet, kindMaxProp, kindOther, kindProphet,
		kindMaxProp, kindProphet, kindMaxProp, kindProphet, kindMaxProp}
	for seed := uint64(1); seed <= 12; seed++ {
		got := newRefNet(kinds, false, ProphetConfig{}, units.MB(5))
		want := newRefNet(kinds, true, ProphetConfig{}, units.MB(5))
		randomRun(got, seed, 3000)
		randomRun(want, seed, 3000)
		compareNets(t, got, want)
	}
}

// TestHopThresholdMatchesReferenceAtZoneEdges compares MaxProp's hop
// threshold, found from a byte tally by hop count, with the reference's
// sort over random buffers. Sizes and zones are multiples of 100 kB, so
// the zone often equals a running byte sum exactly, where the threshold
// must still be the hop count that reaches it plus one.
func TestHopThresholdMatchesReferenceAtZoneEdges(t *testing.T) {
	rng := xrand.New(1)
	for trial := range 2000 {
		buf := buffer.NewStore(units.MB(5))
		mx, ref := NewMaxProp(), newRefMaxProp()
		mx.Attach(0, buf)
		ref.Attach(0, buf)
		for id := range rng.IntN(12) {
			m := bundle.New(bundle.ID(id+1), 0, 1, units.KB(100)*units.Bytes(1+rng.IntN(5)), 0, 1e9)
			m.HopCount = rng.IntN(5)
			buf.Add(0, m, nil)
		}
		zone := units.KB(100) * units.Bytes(rng.IntN(30))
		mx.contactCount, mx.bytesMoved = 1, zone
		ref.contactCount, ref.bytesMoved = 1, zone
		if got, want := mx.hopThreshold(), ref.hopThreshold(); got != want {
			t.Fatalf("trial %d, zone %d over %d replicas: threshold %d, reference %d", trial, zone, buf.Len(), got, want)
		}
	}
}

// TestMaxPropMatchesReferenceAtZeroLikelihood meets node 1 once, then
// node 2 1,100 times: each meeting halves f(1), which underflows to 0.0
// after about 1,075. A met node stays an edge of cost 1 at likelihood
// 0.0, so Cost(1) must stay 1 where a never-met node's is +Inf.
func TestMaxPropMatchesReferenceAtZeroLikelihood(t *testing.T) {
	kinds := []nodeKind{kindMaxProp, kindMaxProp, kindMaxProp, kindOther, kindMaxProp}
	run := func(ref bool) *refNet {
		n := newRefNet(kinds, ref, ProphetConfig{}, units.MB(5))
		rng := xrand.New(1)
		n.add(0, bundle.New(1, 0, 1, units.KB(100), 0, 1e9))
		n.add(0, bundle.New(2, 0, 4, units.KB(100), 0, 1e9))
		n.up(0, 1)
		n.down(0, 1)
		for i := range 1100 {
			n.now++
			n.up(0, 2+i%2) // every other contact is with a non-MaxProp peer
			n.exchange(0, 2+i%2, 2, rng)
			n.down(0, 2+i%2)
		}
		return n
	}
	got, want := run(false), run(true)
	compareNets(t, got, want)
	mx := got.nodes[0].router.(*MaxProp)
	if f, c := mx.MeetingLikelihood(1), mx.Cost(1); f != 0 || c != 1 {
		t.Fatalf("after 1,100 contacts: f(1) = %v, Cost(1) = %v; want 0 and 1", f, c)
	}
	if c := mx.Cost(4); !math.IsInf(c, 1) {
		t.Fatalf("Cost(4) of a node never met = %v, want +Inf", c)
	}
}

// TestMaxPropMatchesReferenceAtTiesAndZeroEdges drives nodes 0 to 2 to
// vectors in which nodes 4 and 6 have halved down to likelihood 0.0, a
// hop of cost exactly 1, and has them swap those vectors, before a random
// contact sequence that never meets node 6 spreads them further. Dijkstra
// then relaxes zero-likelihood edges out of peer snapshots as well as its
// own vector, and finalizes equal-cost nodes, which must come out in id
// order with the reference's costs.
func TestMaxPropMatchesReferenceAtTiesAndZeroEdges(t *testing.T) {
	kinds := []nodeKind{kindMaxProp, kindMaxProp, kindMaxProp, kindMaxProp, kindMaxProp, kindOther, kindMaxProp}
	zeroEdge := func(n *refNet, a int) bool {
		return slices.ContainsFunc(n.nodes[a].router.(*MaxProp).peers, func(row []float64) bool { return slices.Contains(row, 1) })
	}
	run := func(ref bool) *refNet {
		n := newRefNet(kinds, ref, ProphetConfig{}, units.MB(5))
		for a := range 3 {
			n.up(a, 4)
			n.down(a, 4)
			n.up(a, 6)
			n.down(a, 6)
			for range 1100 {
				n.now++
				n.up(a, 5) // a non-MaxProp peer: no snapshot
				n.down(a, 5)
			}
		}
		n.up(0, 1)
		n.down(0, 1)
		if !ref {
			mx := n.nodes[0].router.(*MaxProp)
			if c4, c6 := mx.Cost(4), mx.Cost(6); c4 != 1 || c6 != 1 || !zeroEdge(n, 0) {
				t.Fatalf("after the swap: Cost(4) = %v, Cost(6) = %v, zero edge in a snapshot %v; want 1, 1, true", c4, c6, zeroEdge(n, 0))
			}
		}
		randomRun(n, 1, 3000)
		return n
	}
	got, want := run(false), run(true)
	compareNets(t, got, want)
	if !zeroEdge(got, 0) && !zeroEdge(got, 1) {
		t.Fatal("the random contacts left no zero-likelihood edge in nodes 0 and 1's snapshots")
	}
}

// TestProphetMatchesReferenceAtAgingCutoff ages a predictability to
// exactly 1e-6, which survives (only values below it are zeroed), and
// then past it. PInit is 1e-6 * 2^19 and each 1 s unit halves it, so the
// products are exact.
func TestProphetMatchesReferenceAtAgingCutoff(t *testing.T) {
	cfg := ProphetConfig{PInit: 1e-6 * (1 << 19), Gamma: 0.5, TimeUnit: 1}
	kinds := []nodeKind{kindProphet, kindProphet, kindProphet}
	run := func(ref bool) *refNet {
		n := newRefNet(kinds, ref, cfg, units.MB(5))
		n.add(1, bundle.New(1, 1, 2, units.KB(100), 0, 1e9))
		n.up(0, 1)
		n.down(0, 1)
		for _, now := range []float64{18, 19, 19, 20} {
			n.now = now
			n.observe(0)
			n.observe(1)
		}
		n.up(1, 2)
		n.send(1, 2, false)
		return n
	}
	got, want := run(false), run(true)
	compareNets(t, got, want)
	pr := got.nodes[0].router.(*Prophet)
	if p := pr.Predictability(19, 1); p != 0 {
		t.Fatalf("P(1) at t=20 read back at t=19 = %v, want 0 (aging never runs backwards)", p)
	}
	fresh := newRefNet(kinds, false, cfg, units.MB(5))
	fresh.up(0, 1)
	if p := fresh.nodes[0].router.(*Prophet).Predictability(19, 1); p != 1e-6 {
		t.Fatalf("P(1) at the cut-off = %v, want exactly 1e-6 kept", p)
	}
}
