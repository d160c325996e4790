package routing

import (
	"math"
	"slices"
	"testing"

	"vdtn/internal/buffer"
	"vdtn/internal/bundle"
	"vdtn/internal/core"
	"vdtn/internal/units"
	"vdtn/internal/xrand"
)

// fakePeer implements Peer for router unit tests.
type fakePeer struct {
	id        int
	router    Router
	buf       *buffer.Store
	delivered map[bundle.ID]bool
}

func (f *fakePeer) ID() int { return f.id }

func (f *fakePeer) Has(id bundle.ID) bool { return f.buf != nil && f.buf.Has(id) }

func (f *fakePeer) HasDelivered(id bundle.ID) bool { return f.delivered[id] }

func (f *fakePeer) Router() Router { return f.router }

// newPeer builds a peer with an attached router and fresh buffer.
func newPeer(id int, r Router) *fakePeer {
	buf := buffer.NewStore(units.MB(100))
	if r != nil {
		r.Attach(id, buf)
	}
	return &fakePeer{id: id, router: r, buf: buf, delivered: map[bundle.ID]bool{}}
}

// attach gives router r a node id and buffer, returning the buffer.
func attach(r Router, id int) *buffer.Store {
	buf := buffer.NewStore(units.MB(100))
	r.Attach(id, buf)
	return buf
}

func msgTo(id bundle.ID, from, to int, created, ttl float64) *bundle.Message {
	return bundle.New(id, from, to, units.KB(500), created, ttl)
}

// drain pops sends until the router runs dry, returning message ids.
func drain(r Router, now float64, p Peer) []bundle.ID {
	var out []bundle.ID
	for {
		s := r.NextSend(now, p)
		if s == nil {
			return out
		}
		out = append(out, s.Msg.ID)
		if len(out) > 1000 {
			panic("drain: runaway queue")
		}
	}
}

// --- queueSet ------------------------------------------------------------

func TestQueueSetPopValidates(t *testing.T) {
	var q queueSet
	a := msgTo(1, 0, 9, 0, 60)
	b := msgTo(2, 0, 9, 0, 60)
	c := msgTo(3, 0, 9, 0, 60)
	q.set(7, []*bundle.Message{a, b, c})
	got := q.pop(7, func(m *bundle.Message) bool { return m.ID != 1 })
	if got != b {
		t.Fatalf("pop = %v, want M2 (M1 invalid)", got)
	}
	got = q.pop(7, func(*bundle.Message) bool { return true })
	if got != c {
		t.Fatalf("pop = %v, want M3", got)
	}
	if q.pop(7, func(*bundle.Message) bool { return true }) != nil {
		t.Fatal("pop from drained queue returned message")
	}
}

func TestQueueSetPushFront(t *testing.T) {
	var q queueSet
	a := msgTo(1, 0, 9, 0, 60)
	b := msgTo(2, 0, 9, 0, 60)
	q.set(7, []*bundle.Message{a})
	q.push(7, b)
	if got := q.pop(7, func(*bundle.Message) bool { return true }); got != b {
		t.Fatalf("pushed message not first: got %v", got)
	}
}

// TestQueueSetReusesDroppedStorage: a queue dropped at ContactDown leaves
// its backing array, cleared, for the next queue set up, so contacts that
// come and go allocate no queue storage once warm, and the free list never
// holds more arrays than queues were open at once.
func TestQueueSetReusesDroppedStorage(t *testing.T) {
	var q queueSet
	msgs := []*bundle.Message{msgTo(1, 0, 9, 0, 60), msgTo(2, 0, 9, 0, 60), msgTo(3, 0, 9, 0, 60)}
	q.set(4, msgs)
	q.set(5, msgs[:1])
	arr := &q.peers[4].msgs[:1][0]
	q.drop(4)
	q.drop(5)
	if len(q.free) != 2 {
		t.Fatalf("free list holds %d arrays after dropping 2 queues", len(q.free))
	}
	for _, f := range q.free {
		if len(f) != 0 || slices.ContainsFunc(f[:cap(f)], func(m *bundle.Message) bool { return m != nil }) {
			t.Fatalf("dropped storage not cleared: %v", f[:cap(f)])
		}
	}
	q.set(6, msgs[:2])
	q.set(7, msgs)
	if got := &q.peers[7].msgs[0]; got != arr {
		t.Fatal("the second new queue did not reuse the first dropped array (LIFO)")
	}
	if len(q.free) != 0 {
		t.Fatalf("free list holds %d arrays with 2 queues open", len(q.free))
	}
	allocs := testing.AllocsPerRun(100, func() {
		q.drop(6)
		q.set(8, msgs)
		q.drop(8)
		q.set(6, msgs)
	})
	if allocs != 0 || len(q.free) != 0 {
		t.Fatalf("contact churn allocates %v times, leaves %d free arrays", allocs, len(q.free))
	}
}

// --- Epidemic ------------------------------------------------------------

// TestEpidemicNextSendAllocatesNothing: with its queue built, each NextSend
// pops the next replica into the router's one Send without allocating.
func TestEpidemicNextSendAllocatesNothing(t *testing.T) {
	e := NewEpidemic(core.FIFOFIFO())
	attach(e, 0)
	peer := newPeer(1, NewEpidemic(core.FIFOFIFO()))
	for i := 1; i <= 200; i++ {
		e.AddMessage(0, msgTo(bundle.ID(i), 0, 9, 0, 3600))
	}
	e.ContactUp(10, peer)
	var last *Send
	allocs := testing.AllocsPerRun(100, func() { last = e.NextSend(10, peer) })
	if allocs != 0 {
		t.Fatalf("NextSend allocates %v times", allocs)
	}
	if last == nil || last.Msg.ID != 101 || last.TransferCopies != 0 {
		t.Fatalf("101st send = %+v, want M101", last)
	}
}

func TestEpidemicSendsWhatPeerLacks(t *testing.T) {
	e := NewEpidemic(core.FIFOFIFO())
	buf := attach(e, 0)
	peer := newPeer(1, NewEpidemic(core.FIFOFIFO()))

	for i := 1; i <= 3; i++ {
		e.AddMessage(0, msgTo(bundle.ID(i), 0, 9, 0, 3600))
	}
	// Peer already holds M2.
	peer.buf.Add(0, msgTo(2, 0, 9, 0, 3600), nil)

	e.ContactUp(10, peer)
	got := drain(e, 10, peer)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("sends = %v, want [M1 M3]", got)
	}
	_ = buf
}

func TestEpidemicDeliverableFirst(t *testing.T) {
	e := NewEpidemic(core.FIFOFIFO())
	attach(e, 0)
	peer := newPeer(5, NewEpidemic(core.FIFOFIFO()))

	e.AddMessage(0, msgTo(1, 0, 9, 0, 3600)) // relay candidate, arrived first
	e.AddMessage(1, msgTo(2, 0, 5, 1, 3600)) // destined to peer, arrived later

	e.ContactUp(10, peer)
	got := drain(e, 10, peer)
	if len(got) != 2 || got[0] != 2 {
		t.Fatalf("sends = %v, want deliverable M2 first", got)
	}
}

func TestEpidemicLifetimeScheduling(t *testing.T) {
	e := NewEpidemic(core.Lifetime())
	attach(e, 0)
	peer := newPeer(1, NewEpidemic(core.Lifetime()))

	e.AddMessage(0, msgTo(1, 0, 9, 0, units.Minutes(60)))  // expires 3600
	e.AddMessage(0, msgTo(2, 0, 9, 0, units.Minutes(180))) // expires 10800
	e.AddMessage(0, msgTo(3, 0, 9, 0, units.Minutes(120))) // expires 7200

	e.ContactUp(10, peer)
	got := drain(e, 10, peer)
	want := []bundle.ID{2, 3, 1} // longest remaining TTL first
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sends = %v, want %v", got, want)
		}
	}
}

func TestEpidemicOnSentDeliveredDiscardsCopy(t *testing.T) {
	e := NewEpidemic(core.FIFOFIFO())
	buf := attach(e, 0)
	peer := newPeer(5, nil)
	m := msgTo(1, 0, 5, 0, 3600)
	e.AddMessage(0, m)
	e.OnSent(10, peer, &Send{Msg: m}, true)
	if buf.Has(1) {
		t.Fatal("replica kept after delivering to destination (paper rule)")
	}
}

func TestEpidemicOnSentRelayedKeepsCopy(t *testing.T) {
	e := NewEpidemic(core.FIFOFIFO())
	buf := attach(e, 0)
	peer := newPeer(1, nil)
	m := msgTo(1, 0, 9, 0, 3600)
	e.AddMessage(0, m)
	e.OnSent(10, peer, &Send{Msg: m}, false)
	if !buf.Has(1) {
		t.Fatal("replica lost after relaying (epidemic keeps copies)")
	}
}

func TestEpidemicNextSendRevalidates(t *testing.T) {
	e := NewEpidemic(core.FIFOFIFO())
	buf := attach(e, 0)
	peer := newPeer(1, NewEpidemic(core.FIFOFIFO()))
	m := msgTo(1, 0, 9, 0, 3600)
	e.AddMessage(0, m)
	e.ContactUp(10, peer)
	buf.Remove(1) // evicted while queued
	if s := e.NextSend(11, peer); s != nil {
		t.Fatalf("sent message no longer in buffer: %v", s.Msg)
	}
}

func TestEpidemicSkipsExpiredAtSendTime(t *testing.T) {
	e := NewEpidemic(core.FIFOFIFO())
	attach(e, 0)
	peer := newPeer(1, NewEpidemic(core.FIFOFIFO()))
	e.AddMessage(0, msgTo(1, 0, 9, 0, 100)) // expires at 100
	e.ContactUp(50, peer)
	if s := e.NextSend(150, peer); s != nil {
		t.Fatal("expired message offered")
	}
}

func TestEpidemicReceiveRejectsExpired(t *testing.T) {
	e := NewEpidemic(core.FIFOFIFO())
	attach(e, 0)
	peer := newPeer(1, nil)
	m := msgTo(1, 1, 9, 0, 100)
	if ok, _ := e.Receive(200, m, peer); ok {
		t.Fatal("expired replica accepted")
	}
}

func TestEpidemicReceiveEvictsByPolicy(t *testing.T) {
	e := NewEpidemic(core.Lifetime())
	buf := buffer.NewStore(units.MB(1))
	e.Attach(0, buf)
	peer := newPeer(1, nil)
	short := bundle.New(1, 1, 9, units.KB(600), 0, 600) // expires soonest
	long := bundle.New(2, 1, 9, units.KB(300), 0, 7200)
	e.Receive(10, short, peer)
	e.Receive(10, long, peer)
	incoming := bundle.New(3, 1, 9, units.KB(500), 10, 7200)
	ok, evicted := e.Receive(10, incoming, peer)
	if !ok {
		t.Fatal("incoming rejected")
	}
	if len(evicted) != 1 || evicted[0].ID != 1 {
		t.Fatalf("evicted %v, want [M1] (Lifetime ASC)", evicted)
	}
	if !buf.Has(2) || !buf.Has(3) {
		t.Fatal("wrong survivors")
	}
}

func TestEpidemicAbortRequeuesFirst(t *testing.T) {
	e := NewEpidemic(core.FIFOFIFO())
	attach(e, 0)
	peer := newPeer(1, NewEpidemic(core.FIFOFIFO()))
	m1 := msgTo(1, 0, 9, 0, 3600)
	m2 := msgTo(2, 0, 9, 1, 3600)
	e.AddMessage(0, m1)
	e.AddMessage(1, m2)
	e.ContactUp(10, peer)
	s := e.NextSend(10, peer)
	if s.Msg.ID != 1 {
		t.Fatalf("first send = %v", s.Msg.ID)
	}
	e.OnAbort(11, peer, s)
	if got := e.NextSend(12, peer); got.Msg.ID != 1 {
		t.Fatalf("after abort, next send = %v, want M1 retried", got.Msg.ID)
	}
}

func TestEpidemicSkipsPeerDeliveredMessages(t *testing.T) {
	e := NewEpidemic(core.FIFOFIFO())
	attach(e, 0)
	peer := newPeer(5, NewEpidemic(core.FIFOFIFO()))
	peer.delivered[1] = true
	e.AddMessage(0, msgTo(1, 0, 5, 0, 3600))
	e.ContactUp(10, peer)
	if s := e.NextSend(10, peer); s != nil {
		t.Fatal("offered a message the destination already received")
	}
}

// --- Spray and Wait ------------------------------------------------------

func TestSprayAndWaitBudgetOnCreate(t *testing.T) {
	s := NewSprayAndWait(core.FIFOFIFO(), 12, true)
	buf := attach(s, 0)
	m := msgTo(1, 0, 9, 0, 3600)
	s.AddMessage(0, m)
	got, _ := buf.Get(1)
	if got.Copies != 12 {
		t.Fatalf("Copies = %d, want 12", got.Copies)
	}
}

func TestSprayAndWaitBinarySplit(t *testing.T) {
	s := NewSprayAndWait(core.FIFOFIFO(), 12, true)
	buf := attach(s, 0)
	peer := newPeer(1, NewSprayAndWait(core.FIFOFIFO(), 12, true))
	m := msgTo(1, 0, 9, 0, 3600)
	s.AddMessage(0, m)
	s.ContactUp(10, peer)
	send := s.NextSend(10, peer)
	if send == nil {
		t.Fatal("nothing offered")
	}
	if send.TransferCopies != 6 {
		t.Fatalf("TransferCopies = %d, want 6 (floor(12/2))", send.TransferCopies)
	}
	s.OnSent(11, peer, send, false)
	got, _ := buf.Get(1)
	if got.Copies != 6 {
		t.Fatalf("sender keeps %d, want 6", got.Copies)
	}
}

func TestSprayAndWaitOddBudgetSplit(t *testing.T) {
	s := NewSprayAndWait(core.FIFOFIFO(), 5, true)
	buf := attach(s, 0)
	peer := newPeer(1, NewSprayAndWait(core.FIFOFIFO(), 5, true))
	s.AddMessage(0, msgTo(1, 0, 9, 0, 3600))
	s.ContactUp(10, peer)
	send := s.NextSend(10, peer)
	if send.TransferCopies != 2 {
		t.Fatalf("TransferCopies = %d, want floor(5/2)=2", send.TransferCopies)
	}
	s.OnSent(11, peer, send, false)
	got, _ := buf.Get(1)
	if got.Copies != 3 {
		t.Fatalf("sender keeps %d, want ceil(5/2)=3", got.Copies)
	}
}

func TestSprayAndWaitWaitPhase(t *testing.T) {
	s := NewSprayAndWait(core.FIFOFIFO(), 12, true)
	buf := attach(s, 0)
	relay := newPeer(1, NewSprayAndWait(core.FIFOFIFO(), 12, true))
	dest := newPeer(9, NewSprayAndWait(core.FIFOFIFO(), 12, true))

	m := msgTo(1, 0, 9, 0, 3600)
	s.AddMessage(0, m)
	got, _ := buf.Get(1)
	got.Copies = 1 // force wait phase

	s.ContactUp(10, relay)
	if send := s.NextSend(10, relay); send != nil {
		t.Fatal("wait-phase replica sprayed to relay")
	}
	s.ContactUp(20, dest)
	if send := s.NextSend(20, dest); send == nil {
		t.Fatal("wait-phase replica not offered to destination")
	}
}

// TestSprayAndWaitSendResetWhole: the router hands out one reused Send,
// reset whole per call, so a delivery after a spray carries no stale
// copy budget.
func TestSprayAndWaitSendResetWhole(t *testing.T) {
	s := NewSprayAndWait(core.FIFOFIFO(), 12, true)
	attach(s, 0)
	relay := newPeer(1, NewSprayAndWait(core.FIFOFIFO(), 12, true))
	dest := newPeer(9, NewSprayAndWait(core.FIFOFIFO(), 12, true))
	s.AddMessage(0, msgTo(1, 0, 9, 0, 3600))
	s.ContactUp(10, relay)
	spray := s.NextSend(10, relay)
	if spray == nil || spray.TransferCopies != 6 {
		t.Fatalf("spray = %+v, want 6 copies handed over", spray)
	}
	s.OnAbort(10, relay, spray)
	s.ContactUp(20, dest)
	deliver := s.NextSend(20, dest)
	if deliver == nil || deliver.Msg.ID != 1 || deliver.TransferCopies != 0 {
		t.Fatalf("delivery send = %+v, want M1 with no copy budget", deliver)
	}
}

func TestSprayAndWaitVanillaGivesSingles(t *testing.T) {
	s := NewSprayAndWait(core.FIFOFIFO(), 12, false)
	buf := attach(s, 0)
	peer := newPeer(1, NewSprayAndWait(core.FIFOFIFO(), 12, false))
	s.AddMessage(0, msgTo(1, 0, 9, 0, 3600))
	s.ContactUp(10, peer)
	send := s.NextSend(10, peer)
	if send.TransferCopies != 1 {
		t.Fatalf("vanilla TransferCopies = %d, want 1", send.TransferCopies)
	}
	s.OnSent(11, peer, send, false)
	got, _ := buf.Get(1)
	if got.Copies != 11 {
		t.Fatalf("sender keeps %d, want 11", got.Copies)
	}
}

func TestSprayAndWaitCopyConservation(t *testing.T) {
	// A chain of binary handoffs never creates copies out of thin air:
	// the sum of budgets across replicas equals the initial N.
	const n = 12
	routers := make([]*SprayAndWait, 6)
	bufs := make([]*buffer.Store, 6)
	peers := make([]*fakePeer, 6)
	for i := range routers {
		routers[i] = NewSprayAndWait(core.FIFOFIFO(), n, true)
		bufs[i] = buffer.NewStore(units.MB(100))
		routers[i].Attach(i, bufs[i])
		peers[i] = &fakePeer{id: i, router: routers[i], buf: bufs[i], delivered: map[bundle.ID]bool{}}
	}
	routers[0].AddMessage(0, msgTo(1, 0, 99, 0, 3600))

	now := 1.0
	// Spray pairwise: 0->1, 0->2, 1->3, 2->4, 3->5.
	for _, pair := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 4}, {3, 5}} {
		a, b := pair[0], pair[1]
		routers[a].ContactUp(now, peers[b])
		if send := routers[a].NextSend(now, peers[b]); send != nil {
			wire := send.Msg.ForwardTo(b, now)
			wire.Copies = send.TransferCopies
			routers[b].Receive(now, wire, peers[a])
			routers[a].OnSent(now, peers[b], send, false)
		}
		routers[a].ContactDown(now, peers[b])
		now++
	}
	total := 0
	for i := range bufs {
		if m, ok := bufs[i].Get(1); ok {
			total += m.Copies
		}
	}
	if total != n {
		t.Fatalf("copy budget not conserved: total %d, want %d", total, n)
	}
}

func TestSprayAndWaitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero copies did not panic")
		}
	}()
	NewSprayAndWait(core.FIFOFIFO(), 0, true)
}

// --- PRoPHET -------------------------------------------------------------

func TestProphetEncounterBoost(t *testing.T) {
	a := NewProphet(DefaultProphetConfig())
	attach(a, 0)
	bRouter := NewProphet(DefaultProphetConfig())
	peer := newPeer(1, bRouter)

	a.ContactUp(0, peer)
	if p := a.Predictability(0, 1); math.Abs(p-0.75) > 1e-9 {
		t.Fatalf("P after first encounter = %v, want 0.75", p)
	}
	a.ContactDown(0, peer)
	a.ContactUp(0, peer)
	// 0.75 + (1-0.75)*0.75 = 0.9375 (no time passed, no aging).
	if p := a.Predictability(0, 1); math.Abs(p-0.9375) > 1e-9 {
		t.Fatalf("P after second encounter = %v, want 0.9375", p)
	}
}

func TestProphetAging(t *testing.T) {
	cfg := DefaultProphetConfig() // gamma 0.98, unit 30 s
	a := NewProphet(cfg)
	attach(a, 0)
	peer := newPeer(1, NewProphet(cfg))
	a.ContactUp(0, peer)
	// After 300 s = 10 time units: 0.75 * 0.98^10.
	want := 0.75 * math.Pow(0.98, 10)
	if p := a.Predictability(300, 1); math.Abs(p-want) > 1e-9 {
		t.Fatalf("aged P = %v, want %v", p, want)
	}
}

func TestProphetTransitivity(t *testing.T) {
	cfg := DefaultProphetConfig()
	a := NewProphet(cfg)
	attach(a, 0)
	b := NewProphet(cfg)
	bBuf := buffer.NewStore(units.MB(100))
	b.Attach(1, bBuf)
	c := NewProphet(cfg)
	attach(c, 2)

	// B meets C: P_b(c) = 0.75.
	cPeer := &fakePeer{id: 2, router: c, buf: buffer.NewStore(units.MB(1)), delivered: map[bundle.ID]bool{}}
	b.ContactUp(0, cPeer)

	// A meets B: direct P_a(b) = 0.75; transitive P_a(c) =
	// 0 + 1*0.75*0.75*0.25 = 0.140625.
	bPeer := &fakePeer{id: 1, router: b, buf: bBuf, delivered: map[bundle.ID]bool{}}
	a.ContactUp(0, bPeer)
	if p := a.Predictability(0, 2); math.Abs(p-0.140625) > 1e-9 {
		t.Fatalf("transitive P = %v, want 0.140625", p)
	}
}

func TestProphetGRTRMaxForwarding(t *testing.T) {
	cfg := DefaultProphetConfig()
	a := NewProphet(cfg)
	attach(a, 0)
	b := NewProphet(cfg)
	bBuf := buffer.NewStore(units.MB(100))
	b.Attach(1, bBuf)

	// B knows destinations 7 (strongly) and 8 (weakly); A knows neither.
	seven := &fakePeer{id: 7, router: NewProphet(cfg), buf: buffer.NewStore(units.MB(1)), delivered: map[bundle.ID]bool{}}
	seven.router.Attach(7, seven.buf)
	eight := &fakePeer{id: 8, router: NewProphet(cfg), buf: buffer.NewStore(units.MB(1)), delivered: map[bundle.ID]bool{}}
	eight.router.Attach(8, eight.buf)
	b.ContactUp(0, eight)
	b.ContactDown(0, eight)
	b.ContactUp(0, seven)
	b.ContactDown(0, seven)
	b.ContactUp(0, seven) // P_b(7) ≈ 0.94 > P_b(8) ≈ 0.75
	b.ContactDown(0, seven)

	a.AddMessage(0, msgTo(1, 0, 8, 0, 3600))
	a.AddMessage(0, msgTo(2, 0, 7, 0, 3600))
	a.AddMessage(0, msgTo(3, 0, 9, 0, 3600)) // dest unknown to both: not offered

	bPeer := &fakePeer{id: 1, router: b, buf: bBuf, delivered: map[bundle.ID]bool{}}
	a.ContactUp(1, bPeer)
	got := drain(a, 1, bPeer)
	// GRTRMax: M2 (P_b(7) highest) then M1; M3 not offered.
	if len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Fatalf("GRTRMax order = %v, want [M2 M1]", got)
	}
}

func TestProphetDoesNotOfferWhenOwnPredBetter(t *testing.T) {
	cfg := DefaultProphetConfig()
	a := NewProphet(cfg)
	attach(a, 0)
	b := NewProphet(cfg)
	bBuf := buffer.NewStore(units.MB(100))
	b.Attach(1, bBuf)

	// A itself met 7; B never did.
	seven := &fakePeer{id: 7, router: NewProphet(cfg), buf: buffer.NewStore(units.MB(1)), delivered: map[bundle.ID]bool{}}
	seven.router.Attach(7, seven.buf)
	a.ContactUp(0, seven)
	a.ContactDown(0, seven)

	a.AddMessage(0, msgTo(1, 0, 7, 0, 3600))
	bPeer := &fakePeer{id: 1, router: b, buf: bBuf, delivered: map[bundle.ID]bool{}}
	a.ContactUp(1, bPeer)
	if got := drain(a, 1, bPeer); len(got) != 0 {
		t.Fatalf("offered %v to a worse-positioned peer", got)
	}
}

func TestProphetDeliverableAlwaysSent(t *testing.T) {
	cfg := DefaultProphetConfig()
	a := NewProphet(cfg)
	attach(a, 0)
	b := NewProphet(cfg)
	bBuf := buffer.NewStore(units.MB(100))
	b.Attach(5, bBuf)
	a.AddMessage(0, msgTo(1, 0, 5, 0, 3600))
	bPeer := &fakePeer{id: 5, router: b, buf: bBuf, delivered: map[bundle.ID]bool{}}
	a.ContactUp(1, bPeer)
	if got := drain(a, 1, bPeer); len(got) != 1 || got[0] != 1 {
		t.Fatalf("deliverable not sent: %v", got)
	}
}

func TestProphetInvalidParamsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad gamma did not panic")
		}
	}()
	NewProphet(ProphetConfig{PInit: 0.75, Beta: 0.25, Gamma: 1.5, TimeUnit: 30})
}

// --- MaxProp -------------------------------------------------------------

func TestMaxPropMeetingLikelihoods(t *testing.T) {
	mx := NewMaxProp()
	attach(mx, 0)
	p1 := newPeer(1, NewMaxProp())
	p2 := newPeer(2, NewMaxProp())

	mx.ContactUp(0, p1)
	if f := mx.MeetingLikelihood(1); math.Abs(f-1.0) > 1e-9 {
		t.Fatalf("f(1) = %v, want 1.0 after sole meeting", f)
	}
	mx.ContactDown(0, p1)
	mx.ContactUp(1, p2)
	if f := mx.MeetingLikelihood(1); math.Abs(f-0.5) > 1e-9 {
		t.Fatalf("f(1) = %v, want 0.5", f)
	}
	mx.ContactDown(1, p2)
	mx.ContactUp(2, p1)
	// f(1) = (0.5+1)/2 = 0.75, f(2) = 0.25.
	if f := mx.MeetingLikelihood(1); math.Abs(f-0.75) > 1e-9 {
		t.Fatalf("f(1) = %v, want 0.75", f)
	}
	if f := mx.MeetingLikelihood(2); math.Abs(f-0.25) > 1e-9 {
		t.Fatalf("f(2) = %v, want 0.25", f)
	}
}

func TestMaxPropCostDirectAndPath(t *testing.T) {
	mx := NewMaxProp()
	attach(mx, 0)
	b := NewMaxProp()
	bBuf := buffer.NewStore(units.MB(100))
	b.Attach(1, bBuf)

	// B has met node 2 only: f_b(2) = 1.
	two := newPeer(2, NewMaxProp())
	b.ContactUp(0, two)
	b.ContactDown(0, two)

	// A meets B: f_a(1) = 1, and A snapshots B's vector.
	bPeer := &fakePeer{id: 1, router: b, buf: bBuf, delivered: map[bundle.ID]bool{}}
	mx.ContactUp(1, bPeer)

	if c := mx.Cost(1); math.Abs(c-0.0) > 1e-9 {
		t.Fatalf("cost(1) = %v, want 0 (f=1)", c)
	}
	// Path 0->1->2: (1-1) + (1-1) = 0... B's vector after meeting A
	// changed, but the snapshot was taken during A's ContactUp, after B's
	// own ContactUp may not have run. Here B never met A from B's side,
	// so snapshot has only f_b(2)=1: cost(2) = (1-f_a(1)) + (1-f_b(2)) = 0.
	if c := mx.Cost(2); math.Abs(c-0.0) > 1e-9 {
		t.Fatalf("cost(2) = %v, want 0", c)
	}
	if c := mx.Cost(99); !math.IsInf(c, 1) {
		t.Fatalf("cost(unknown) = %v, want +Inf", c)
	}
	if c := mx.Cost(0); c != 0 {
		t.Fatalf("cost(self) = %v, want 0", c)
	}
}

func TestMaxPropAckPropagation(t *testing.T) {
	a := NewMaxProp()
	aBuf := attach(a, 0)
	b := NewMaxProp()
	bBuf := buffer.NewStore(units.MB(100))
	b.Attach(1, bBuf)

	// Both hold M1; B learns it was delivered.
	a.AddMessage(0, msgTo(1, 0, 9, 0, 3600))
	b.AddMessage(0, msgTo(1, 0, 9, 0, 3600))
	b.OnDelivered(1, msgTo(1, 0, 9, 0, 3600))

	bPeer := &fakePeer{id: 1, router: b, buf: bBuf, delivered: map[bundle.ID]bool{}}
	a.ContactUp(2, bPeer)
	if !a.Acked(1) {
		t.Fatal("ack did not propagate at contact")
	}
	if aBuf.Has(1) {
		t.Fatal("acked replica not purged from buffer")
	}
}

func TestMaxPropOnSentDeliveredCreatesAck(t *testing.T) {
	a := NewMaxProp()
	buf := attach(a, 0)
	m := msgTo(1, 0, 5, 0, 3600)
	a.AddMessage(0, m)
	peer := newPeer(5, nil)
	a.OnSent(1, peer, &Send{Msg: m}, true)
	if !a.Acked(1) {
		t.Fatal("no ack recorded on delivery")
	}
	if buf.Has(1) {
		t.Fatal("replica kept after delivery")
	}
}

func TestMaxPropVisitedNodeNotReoffered(t *testing.T) {
	a := NewMaxProp()
	attach(a, 0)
	b := NewMaxProp()
	bBuf := buffer.NewStore(units.MB(100))
	b.Attach(3, bBuf)

	m := msgTo(1, 9, 7, 0, 3600)
	m = m.ForwardTo(3, 1) // passed through node 3 already
	m = m.ForwardTo(0, 2)
	a.Receive(2, m, newPeer(3, nil))

	bPeer := &fakePeer{id: 3, router: b, buf: bBuf, delivered: map[bundle.ID]bool{}}
	a.ContactUp(3, bPeer)
	if got := drain(a, 3, bPeer); len(got) != 0 {
		t.Fatalf("re-offered %v to previous intermediary", got)
	}
}

func TestMaxPropRejectsAckedReceive(t *testing.T) {
	a := NewMaxProp()
	attach(a, 0)
	a.OnDelivered(0, msgTo(1, 5, 9, 0, 3600))
	ok, _ := a.Receive(1, msgTo(1, 5, 9, 0, 3600).ForwardTo(0, 1), newPeer(5, nil))
	if ok {
		t.Fatal("accepted a replica known to be delivered")
	}
}

func TestMaxPropHopThresholdColdStart(t *testing.T) {
	mx := NewMaxProp()
	attach(mx, 0)
	if got := mx.hopThreshold(); got != 0 {
		t.Fatalf("cold-start threshold = %d, want 0", got)
	}
}

func TestMaxPropDropOrder(t *testing.T) {
	mx := NewMaxProp()
	buf := buffer.NewStore(units.MB(2))
	mx.Attach(0, buf)

	// Know destination 7 well (cost 0), destination 8 not at all (cost inf).
	p7 := newPeer(7, NewMaxProp())
	mx.ContactUp(0, p7)
	mx.ContactDown(0, p7)

	toKnown := bundle.New(1, 9, 7, units.KB(900), 0, 3600)
	toUnknown := bundle.New(2, 9, 8, units.KB(900), 0, 3600)
	mx.Receive(1, toKnown.ForwardTo(0, 1), p7)
	mx.Receive(1, toUnknown.ForwardTo(0, 1), p7)

	// Buffer 2 MB, holds 1.8 MB; incoming 900 KB forces one eviction:
	// the unknown-destination (highest-cost) replica must go.
	incoming := bundle.New(3, 9, 7, units.KB(900), 1, 3600)
	ok, evicted := mx.Receive(2, incoming.ForwardTo(0, 2), p7)
	if !ok {
		t.Fatal("incoming rejected")
	}
	if len(evicted) != 1 || evicted[0].ID != 2 {
		t.Fatalf("evicted %v, want [M2] (highest cost)", evicted)
	}
}

func TestMaxPropDropsAckedFirst(t *testing.T) {
	mx := NewMaxProp()
	buf := buffer.NewStore(units.MB(2))
	mx.Attach(0, buf)
	p := newPeer(7, nil)
	m1 := bundle.New(1, 9, 7, units.KB(900), 0, 3600)
	m2 := bundle.New(2, 9, 8, units.KB(900), 0, 3600)
	mx.Receive(1, m1.ForwardTo(0, 1), p)
	mx.Receive(1, m2.ForwardTo(0, 1), p)
	mx.acked.Add(1) // delivered elsewhere, not yet purged
	incoming := bundle.New(3, 9, 7, units.KB(900), 1, 3600)
	_, evicted := mx.Receive(2, incoming.ForwardTo(0, 2), p)
	if len(evicted) != 1 || evicted[0].ID != 1 {
		t.Fatalf("evicted %v, want acked M1 first", evicted)
	}
}

// --- Baselines -----------------------------------------------------------

func TestDirectDeliveryOnlyToDestination(t *testing.T) {
	d := NewDirectDelivery(core.FIFOFIFO())
	attach(d, 0)
	relay := newPeer(1, NewDirectDelivery(core.FIFOFIFO()))
	dest := newPeer(9, NewDirectDelivery(core.FIFOFIFO()))
	d.AddMessage(0, msgTo(1, 0, 9, 0, 3600))

	d.ContactUp(1, relay)
	if got := drain(d, 1, relay); len(got) != 0 {
		t.Fatalf("DirectDelivery relayed %v", got)
	}
	d.ContactUp(2, dest)
	if got := drain(d, 2, dest); len(got) != 1 {
		t.Fatalf("DirectDelivery did not deliver: %v", got)
	}
}

func TestDirectDeliveryRefusesRelays(t *testing.T) {
	d := NewDirectDelivery(core.FIFOFIFO())
	attach(d, 0)
	if ok, _ := d.Receive(1, msgTo(1, 2, 9, 0, 3600), newPeer(2, nil)); ok {
		t.Fatal("DirectDelivery accepted a relay")
	}
}

func TestFirstContactMovesSingleCopy(t *testing.T) {
	f := NewFirstContact(core.FIFOFIFO())
	buf := attach(f, 0)
	peer := newPeer(1, NewFirstContact(core.FIFOFIFO()))
	m := msgTo(1, 0, 9, 0, 3600)
	f.AddMessage(0, m)
	f.ContactUp(1, peer)
	send := f.NextSend(1, peer)
	if send == nil {
		t.Fatal("FirstContact offered nothing")
	}
	f.OnSent(2, peer, send, false)
	if buf.Has(1) {
		t.Fatal("FirstContact kept its copy after forwarding")
	}
}

func TestFirstContactAvoidsVisited(t *testing.T) {
	f := NewFirstContact(core.FIFOFIFO())
	attach(f, 5)
	m := msgTo(1, 0, 9, 0, 3600).ForwardTo(5, 1)
	f.Receive(1, m, newPeer(0, nil))
	back := newPeer(0, NewFirstContact(core.FIFOFIFO()))
	f.ContactUp(2, back)
	if got := drain(f, 2, back); len(got) != 0 {
		t.Fatalf("FirstContact bounced the copy back: %v", got)
	}
}

// --- Shared invariants ---------------------------------------------------

// Property: for every protocol, NextSend never returns an expired message
// or one absent from the buffer, under randomized buffer churn.
func TestAllRoutersNextSendInvariant(t *testing.T) {
	rng := xrand.New(31)
	build := func() []Router {
		return []Router{
			NewEpidemic(core.Lifetime()),
			NewSprayAndWait(core.Lifetime(), 12, true),
			NewSprayAndWait(core.Lifetime(), 12, false),
			NewProphet(DefaultProphetConfig()),
			NewMaxProp(),
			NewDirectDelivery(core.FIFOFIFO()),
			NewFirstContact(core.FIFOFIFO()),
		}
	}
	for _, r := range build() {
		buf := attach(r, 0)
		peerRouters := build()
		peer := newPeer(1, peerRouters[0])
		now := 0.0
		for step := 0; step < 200; step++ {
			now += rng.Float64() * 30
			switch rng.IntN(4) {
			case 0:
				id := bundle.ID(step + 1)
				ttl := 30 + rng.Float64()*600
				dest := []int{1, 9}[rng.IntN(2)]
				r.AddMessage(now, bundle.New(id, 0, dest, units.KB(500), now, ttl))
			case 1:
				r.ContactUp(now, peer)
			case 2:
				r.ContactDown(now, peer)
			case 3:
				s := r.NextSend(now, peer)
				if s == nil {
					continue
				}
				if !buf.Has(s.Msg.ID) {
					t.Fatalf("%s offered a message not in its buffer", r.Name())
				}
				if s.Msg.Expired(now) {
					t.Fatalf("%s offered an expired message", r.Name())
				}
				if rng.Bool(0.5) {
					r.OnSent(now, peer, s, s.Msg.To == peer.ID())
				} else {
					r.OnAbort(now, peer, s)
				}
			}
		}
	}
}
