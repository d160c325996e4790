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

// newPeer builds the view of node id with an attached router r (if any),
// a fresh buffer and an empty delivered set.
func newPeer(id int, r Router) Peer {
	buf := buffer.NewStore(units.MB(100))
	if r != nil {
		r.Attach(id, buf)
	}
	return NewPeer(id, buf, new(bundle.IDSet), r)
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

// TestQueueSetReusesDroppedStorage: a queue dropped at ContactDown leaves
// its backing array, cleared, for the next queue built (reuse, then set), so contacts that
// come and go allocate no queue storage once warm, and the free list never
// holds more arrays than queues were open at once.
func TestQueueSetReusesDroppedStorage(t *testing.T) {
	var q queueSet
	msgs := []*bundle.Message{msgTo(1, 0, 9, 0, 60), msgTo(2, 0, 9, 0, 60), msgTo(3, 0, 9, 0, 60)}
	set := func(peer int, msgs []*bundle.Message) { q.set(peer, append(q.reuse(peer), msgs...)) }
	set(4, msgs)
	set(5, msgs[:1])
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
	set(6, msgs[:2])
	set(7, msgs)
	if got := &q.peers[7].msgs[0]; got != arr {
		t.Fatal("the second new queue did not reuse the first dropped array (LIFO)")
	}
	if len(q.free) != 0 {
		t.Fatalf("free list holds %d arrays with 2 queues open", len(q.free))
	}
	allocs := testing.AllocsPerRun(100, func() {
		q.drop(6)
		set(8, msgs)
		q.drop(8)
		set(6, msgs)
	})
	if allocs != 0 || len(q.free) != 0 {
		t.Fatalf("contact churn allocates %v times, leaves %d free arrays", allocs, len(q.free))
	}
}

// TestSnapSetReusesDroppedStorage: a snapshot dropped at ContactDown
// leaves its word storage for the next snapshot recorded, so contacts
// that come and go allocate nothing once warm, and the set never holds
// more snapshots than were open at once. Dropping one snapshot leaves the
// others' intact.
func TestSnapSetReusesDroppedStorage(t *testing.T) {
	var q snapSet
	own := buffer.NewStore(units.MB(10))
	for id := bundle.ID(100); id < 400; id += 7 {
		own.Add(0, msgTo(id, 0, 9, 0, 60), nil)
	}
	peers := make([]Peer, 9)
	for i := range peers {
		peers[i] = newPeer(i, nil)
	}
	peers[5].buf.Add(0, msgTo(100, 0, 9, 0, 60), nil)
	q.record(peers[4], own)
	q.record(peers[5], own)
	q.record(peers[3], own)
	arr := &q.get(4).words[0]
	q.drop(4)
	if q.get(4) != nil || q.get(5) == nil || q.get(5).spare().Has(100) || !q.get(3).spare().Has(100) {
		t.Fatal("dropping peer 4's snapshot disturbed the others")
	}
	q.drop(5)
	q.drop(3)
	if len(q.open) != 0 || cap(q.open) > 4 {
		t.Fatalf("%d snapshots open, room for %d, after dropping 3", len(q.open), cap(q.open))
	}
	q.record(peers[6], own)
	q.record(peers[7], own)
	q.record(peers[8], own)
	if !slices.ContainsFunc(q.open, func(s snapshot) bool { return &s.words[0] == arr }) {
		t.Fatal("no new snapshot reused the dropped storage")
	}
	allocs := testing.AllocsPerRun(100, func() {
		q.drop(6)
		q.record(peers[2], own)
		q.drop(2)
		q.record(peers[6], own)
	})
	if allocs != 0 || len(q.open) != 3 {
		t.Fatalf("contact churn allocates %v times, leaves %d snapshots open", allocs, len(q.open))
	}
}

// --- Epidemic ------------------------------------------------------------

// TestEpidemicNextSendAllocatesNothing: after ContactUp, each NextSend
// walks the snapshot (FIFO) or pops the built queue (Random) to the next
// replica and returns it in the router's one Send without allocating.
func TestEpidemicNextSendAllocatesNothing(t *testing.T) {
	for _, pol := range []core.Policy{core.FIFOFIFO(), core.RandomFIFO(xrand.New(1))} {
		e := NewEpidemic(pol)
		attach(e, 0)
		peer := newPeer(1, NewEpidemic(pol))
		for i := 1; i <= 200; i++ {
			e.AddMessage(0, msgTo(bundle.ID(i), 0, 9, 0, 3600))
		}
		e.ContactUp(10, peer)
		var last *Send
		allocs := testing.AllocsPerRun(100, func() { last = e.NextSend(10, peer) })
		if allocs != 0 {
			t.Fatalf("%s: NextSend allocates %v times", pol.Name(), allocs)
		}
		if last == nil || last.TransferCopies != 0 || pol.Schedule.KeepsCompareOrder() && last.Msg.ID != 101 {
			t.Fatalf("%s: 101st send = %+v, want one, and M101 under FIFO", pol.Name(), last)
		}
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

// TestSendQueueIsSnapshotAtRefresh: a send queue is the buffer filtered at
// the last Refresh, not a walk of the buffer at pop time. A replica the
// peer held at ContactUp and dropped afterwards (an eviction, a delivery,
// a spray's last copy) is not offered until the next Refresh, which is
// what keeps a pop-time walk of Sorted() from reproducing the queue.
func TestSendQueueIsSnapshotAtRefresh(t *testing.T) {
	e := NewEpidemic(core.FIFOFIFO())
	attach(e, 0)
	peer := newPeer(1, NewEpidemic(core.FIFOFIFO()))
	e.AddMessage(0, msgTo(1, 0, 9, 0, 3600))
	peer.buf.Add(0, msgTo(1, 0, 9, 0, 3600), nil)

	e.ContactUp(10, peer)
	peer.buf.Remove(1)
	if s := e.NextSend(11, peer); s != nil {
		t.Fatalf("NextSend before Refresh = M%d, want nil: the queue was built while the peer held M1", s.Msg.ID)
	}
	e.Refresh(12, peer)
	if s := e.NextSend(12, peer); s == nil || s.Msg.ID != 1 {
		t.Fatalf("NextSend after Refresh = %+v, want M1", s)
	}
}

// snapshotPolicies are the schedules a send queue is checked under: two
// that keep Compare order, whose NextSend walks a Refresh-time snapshot,
// and Random, whose Refresh builds the queue. Both must offer alike.
func snapshotPolicies() []core.Policy {
	return []core.Policy{core.FIFOFIFO(), core.Lifetime(), core.RandomFIFO(xrand.New(3))}
}

// fourByTTL stores M1..M4 at r, destined to node 9, each with a longer
// TTL than the last, so FIFO offers them as 1, 2, 3, 4 and LifetimeDESC
// as 4, 3, 2, 1.
func fourByTTL(r Router) []*bundle.Message {
	var msgs []*bundle.Message
	for i := 1; i <= 4; i++ {
		m := msgTo(bundle.ID(i), 0, 9, float64(i), 1000*float64(i))
		r.AddMessage(float64(i), m)
		msgs = append(msgs, m)
	}
	return msgs
}

// sendOrder returns ids in the order pol's schedule offers M1..M4 of
// fourByTTL, or nil for Random.
func sendOrder(pol core.Policy, ids ...bundle.ID) []bundle.ID {
	switch pol.Schedule.(type) {
	case core.FIFOSchedule:
		return slices.Sorted(slices.Values(ids))
	case core.LifetimeDESCSchedule:
		out := slices.Sorted(slices.Values(ids))
		slices.Reverse(out)
		return out
	}
	return nil
}

// sameSends reports whether got are want's sends, in want's order unless
// pol's schedule is Random.
func sameSends(pol core.Policy, got, want []bundle.ID) bool {
	if pol.Schedule.KeepsCompareOrder() {
		return slices.Equal(got, sendOrder(pol, want...))
	}
	return slices.Equal(slices.Sorted(slices.Values(got)), slices.Sorted(slices.Values(want)))
}

// TestSnapshotSkipsWhatPeerDroppedAfterRefresh: a replica the peer held
// at Refresh is not offered after the peer drops it, and the others are
// offered in schedule order.
func TestSnapshotSkipsWhatPeerDroppedAfterRefresh(t *testing.T) {
	for _, pol := range snapshotPolicies() {
		e := NewEpidemic(pol)
		attach(e, 0)
		peer := newPeer(1, nil)
		msgs := fourByTTL(e)
		peer.buf.Add(5, msgs[1].ForwardTo(1, 5), nil)
		peer.buf.Add(5, msgs[2].ForwardTo(1, 5), nil)
		e.Refresh(10, peer)
		peer.buf.Remove(2)
		if got := drain(e, 11, peer); !sameSends(pol, got, []bundle.ID{1, 4}) {
			t.Fatalf("%s: sends %v after the peer dropped M2, want M1 and M4", pol.Name(), got)
		}
	}
}

// TestSnapshotRemovalBeforeCursorSkipsNothing: replicas removed between
// two pops, the last one offered among them, do not make the next pop
// skip an entry; one removed ahead of the cursor is not offered.
func TestSnapshotRemovalBeforeCursorSkipsNothing(t *testing.T) {
	for _, pol := range snapshotPolicies()[:2] {
		e := NewEpidemic(pol)
		buf := attach(e, 0)
		peer := newPeer(1, nil)
		fourByTTL(e)
		m5 := msgTo(5, 0, 9, 2.5, 2500) // between M2 and M3 in both orders
		e.AddMessage(5, m5)
		order := append(sendOrder(pol, 1, 2, 3, 4)[:2:2], 5)
		order = append(order, sendOrder(pol, 1, 2, 3, 4)[2:]...)
		e.Refresh(10, peer)
		for _, want := range order[:2] {
			if s := e.NextSend(10, peer); s == nil || s.Msg.ID != want {
				t.Fatalf("%s: send %+v, want M%d", pol.Name(), s, want)
			}
		}
		buf.Remove(order[0])
		buf.Remove(order[1])
		buf.Remove(order[3])
		if got := drain(e, 11, peer); !slices.Equal(got, []bundle.ID{order[2], order[4]}) {
			t.Fatalf("%s: sends %v after removing M%d, M%d and M%d, want [M%d M%d]",
				pol.Name(), got, order[0], order[1], order[3], order[2], order[4])
		}
	}
}

// TestSnapshotIgnoresGainWithoutRefresh: a replica stored after Refresh
// is not offered until the next Refresh, whether its id lies inside or
// past the ids buffered at Refresh. The sends are compared as sets.
func TestSnapshotIgnoresGainWithoutRefresh(t *testing.T) {
	for _, pol := range snapshotPolicies() {
		e := NewEpidemic(pol)
		attach(e, 0)
		peer := newPeer(1, nil)
		e.AddMessage(0, msgTo(1, 0, 9, 0, 3600))
		e.AddMessage(0, msgTo(300, 0, 9, 0, 3600))
		e.Refresh(10, peer)
		e.AddMessage(11, msgTo(150, 0, 9, 11, 3600))
		e.Receive(11, msgTo(900, 2, 9, 11, 3600), newPeer(2, nil))
		if got := drain(e, 12, peer); !slices.Equal(slices.Sorted(slices.Values(got)), []bundle.ID{1, 300}) {
			t.Fatalf("%s: sends %v before Refresh, want M1 and M300 only", pol.Name(), got)
		}
		e.Refresh(13, peer)
		if got := drain(e, 13, peer); !slices.Equal(slices.Sorted(slices.Values(got)), []bundle.ID{1, 150, 300, 900}) {
			t.Fatalf("%s: sends %v after Refresh, want all four", pol.Name(), got)
		}
	}
}

// TestSnapshotRestoredReplicaKeepsItsPlace: a replica removed and stored
// again, the same pointer, is offered at its old place if the walk had
// not passed it, and not again if it had.
func TestSnapshotRestoredReplicaKeepsItsPlace(t *testing.T) {
	for _, pol := range snapshotPolicies() {
		e := NewEpidemic(pol)
		buf := attach(e, 0)
		peer := newPeer(1, nil)
		msgs := fourByTTL(e)
		e.Refresh(10, peer)
		first := e.NextSend(10, peer).Msg
		buf.Remove(first.ID)
		buf.Remove(3)
		buf.Add(11, first, nil)
		buf.Add(11, msgs[2], nil)
		rest := []bundle.ID{1, 2, 3, 4}
		rest = slices.DeleteFunc(rest, func(id bundle.ID) bool { return id == first.ID })
		if got := drain(e, 11, peer); !sameSends(pol, got, rest) {
			t.Fatalf("%s: sends %v after M%d (offered) and M3 were stored again, want %v", pol.Name(), got, first.ID, rest)
		}
	}
}

// TestSnapshotOffersTheStoredReplica pins what a walked snapshot does
// where a built queue differs, in a flow a run never makes: a replica
// removed after Refresh and another replica of the same id stored
// without a Refresh. The walk offers the replica the buffer holds, at its
// own place in the order; a queue built at Refresh offered the replica
// it had queued, which the buffer no longer held.
func TestSnapshotOffersTheStoredReplica(t *testing.T) {
	for _, pol := range []core.Policy{core.FIFOFIFO(), core.RandomFIFO(xrand.New(3))} {
		e := NewEpidemic(pol)
		buf := attach(e, 0)
		peer := newPeer(1, nil)
		old := fourByTTL(e)[1]
		e.Refresh(10, peer)
		buf.Remove(2)
		other := old.ForwardTo(0, 11) // received at 11: last in FIFO order
		buf.Add(11, other, nil)
		var sent []*bundle.Message
		for s := e.NextSend(11, peer); s != nil; s = e.NextSend(11, peer) {
			sent = append(sent, s.Msg)
		}
		i := slices.IndexFunc(sent, func(m *bundle.Message) bool { return m.ID == 2 })
		switch {
		case len(sent) != 4 || i < 0:
			t.Fatalf("%s: sent %v, want four sends with one of M2", pol.Name(), sent)
		case pol.Schedule.KeepsCompareOrder() && (sent[i] != other || i != 3):
			t.Fatalf("%s: M2 sent as %p at %d, want the stored replica %p last", pol.Name(), sent[i], i, other)
		case !pol.Schedule.KeepsCompareOrder() && sent[i] != old:
			t.Fatalf("%s: M2 sent as %p, want the queued replica %p", pol.Name(), sent[i], old)
		}
	}
}

// TestSnapshotOffersRegrantedBudget pins the other flow a run never
// makes: a Spray-and-Wait replica with one copy left at Refresh, removed
// and stored again through AddMessage, which grants a created message
// the whole budget. A walked snapshot offers it with its new budget; a
// queue built at Refresh had left it out. A run stores only fresh
// messages through AddMessage, and a stored replica's budget only falls.
func TestSnapshotOffersRegrantedBudget(t *testing.T) {
	for _, pol := range []core.Policy{core.FIFOFIFO(), core.RandomFIFO(xrand.New(3))} {
		s := NewSprayAndWait(pol, 8, true)
		buf := attach(s, 0)
		peer := newPeer(1, nil)
		m := msgTo(1, 0, 9, 0, 3600)
		s.AddMessage(0, m)
		m.Copies = 1 // waiting: relayed to no one
		s.Refresh(10, peer)
		buf.Remove(1)
		s.AddMessage(11, m)
		got := drain(s, 11, peer)
		if want := pol.Schedule.KeepsCompareOrder(); (len(got) == 1) != want {
			t.Fatalf("%s: sends %v after the budget was granted again, want M1 offered: %v", pol.Name(), got, want)
		}
	}
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

// TestEpidemicAbortRequeuesFirst drives an abort in the order the
// simulator produces it: the contact breaks, so OnAbort is followed by
// ContactDown, and the aborted replica is offered first again at the next
// ContactUp because the schedule puts it first, not because of the abort.
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
	e.ContactDown(11, peer)
	e.ContactUp(12, peer)
	if got := e.NextSend(12, peer); got.Msg.ID != 1 {
		t.Fatalf("after abort and reconnect, next send = %v, want M1 first by schedule", got.Msg.ID)
	}
}

func TestEpidemicSkipsPeerDeliveredMessages(t *testing.T) {
	e := NewEpidemic(core.FIFOFIFO())
	attach(e, 0)
	peer := newPeer(5, NewEpidemic(core.FIFOFIFO()))
	peer.delivered.Add(1)
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
	peers := make([]Peer, 6)
	for i := range routers {
		routers[i] = NewSprayAndWait(core.FIFOFIFO(), n, true)
		bufs[i] = buffer.NewStore(units.MB(100))
		routers[i].Attach(i, bufs[i])
		peers[i] = NewPeer(i, bufs[i], new(bundle.IDSet), routers[i])
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
	cPeer := NewPeer(2, buffer.NewStore(units.MB(1)), new(bundle.IDSet), c)
	b.ContactUp(0, cPeer)

	// A meets B: direct P_a(b) = 0.75; transitive P_a(c) =
	// 0 + 1*0.75*0.75*0.25 = 0.140625.
	bPeer := NewPeer(1, bBuf, new(bundle.IDSet), b)
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
	seven := NewPeer(7, buffer.NewStore(units.MB(1)), new(bundle.IDSet), NewProphet(cfg))
	seven.router.Attach(7, seven.buf)
	eight := NewPeer(8, buffer.NewStore(units.MB(1)), new(bundle.IDSet), NewProphet(cfg))
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

	bPeer := NewPeer(1, bBuf, new(bundle.IDSet), b)
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
	seven := NewPeer(7, buffer.NewStore(units.MB(1)), new(bundle.IDSet), NewProphet(cfg))
	seven.router.Attach(7, seven.buf)
	a.ContactUp(0, seven)
	a.ContactDown(0, seven)

	a.AddMessage(0, msgTo(1, 0, 7, 0, 3600))
	bPeer := NewPeer(1, bBuf, new(bundle.IDSet), b)
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
	bPeer := NewPeer(5, bBuf, new(bundle.IDSet), b)
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
	bPeer := NewPeer(1, bBuf, new(bundle.IDSet), b)
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

	bPeer := NewPeer(1, bBuf, new(bundle.IDSet), b)
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

	bPeer := NewPeer(3, bBuf, new(bundle.IDSet), b)
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

// TestMaxPropContactAllocatesNothing: once warm, a contact with a MaxProp
// peer (the likelihood and ack exchange, the purge of the replicas the
// peer's acks name, the re-sort of the buffer for the new cost epoch and
// the queue build) and its ContactDown allocate nothing.
func TestMaxPropContactAllocatesNothing(t *testing.T) {
	mx := NewMaxProp()
	buf := attach(mx, 0)
	b := NewMaxProp()
	peer := newPeer(1, b)
	for id := 2; id <= 6; id++ { // both sides meet others: finite costs
		other := newPeer(id, NewMaxProp())
		mx.ContactUp(0, other)
		mx.ContactDown(0, other)
		b.ContactUp(0, other)
		b.ContactDown(0, other)
	}
	var acked []*bundle.Message
	for i := 1; i <= 40; i++ {
		m := msgTo(bundle.ID(i), 0, 2+i%8, 0, 3600)
		m.HopCount = i % 4
		mx.AddMessage(0, m)
		if i%5 == 0 {
			b.OnDelivered(0, m)
			acked = append(acked, m)
		}
	}
	contact := func() {
		for _, m := range acked { // the same replicas, to be purged again
			buf.Add(1, m, nil)
		}
		mx.ContactUp(1, peer)
		mx.ContactDown(1, peer)
	}
	contact()
	if allocs := testing.AllocsPerRun(100, contact); allocs != 0 {
		t.Fatalf("a warm MaxProp contact allocates %v times", allocs)
	}
	if buf.Len() != 40-len(acked) || slices.ContainsFunc(acked, func(m *bundle.Message) bool { return buf.Has(m.ID) }) {
		t.Fatalf("buffer holds %d replicas after the purge, want %d and none acked", buf.Len(), 40-len(acked))
	}
}

// TestPolicyRefreshAllocatesNothing: once its snapshot, group and queue
// storage have grown, an Epidemic or Spray-and-Wait Refresh towards each
// of three peers, each followed by a NextSend, allocates nothing, under
// the two schedules that walk a snapshot and the Random one that builds
// a queue. The peers hold some replicas and have received others, and
// some replicas are destined to them, so every branch of the key walk
// runs.
func TestPolicyRefreshAllocatesNothing(t *testing.T) {
	routers := []func(core.Policy) Router{
		func(pol core.Policy) Router { return NewEpidemic(pol) },
		func(pol core.Policy) Router { return NewSprayAndWait(pol, 12, true) },
	}
	for _, mk := range routers {
		for _, pol := range []core.Policy{core.FIFOFIFO(), core.Lifetime(), core.RandomFIFO(xrand.New(1))} {
			r := mk(pol)
			t.Run(r.Name()+"/"+pol.Schedule.Name(), func(t *testing.T) {
				attach(r, 0)
				peers := []Peer{newPeer(1, nil), newPeer(2, nil), newPeer(3, nil)}
				for i := 1; i <= 60; i++ {
					m := msgTo(bundle.ID(i), 0, 1+i%5, 0, 3600)
					r.AddMessage(0, m)
					p := peers[i%3]
					switch i % 4 {
					case 0:
						p.buf.Add(0, m.ForwardTo(p.id, 0), nil)
					case 1:
						p.delivered.Add(m.ID)
					}
				}
				sends := 0
				refresh := func() {
					for _, p := range peers {
						r.Refresh(1, p)
						if r.NextSend(1, p) != nil {
							sends++
						}
					}
				}
				refresh()
				if allocs := testing.AllocsPerRun(100, refresh); allocs != 0 {
					t.Fatalf("a warm Refresh and NextSend towards %d peers allocate %v times", len(peers), allocs)
				}
				if sends == 0 {
					t.Fatal("no NextSend after Refresh offered anything")
				}
				if got := drain(r, 1, peers[0]); len(got) == 0 {
					t.Fatal("Refresh queued nothing for peer 1")
				}
			})
		}
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
