package routing

import (
	"fmt"
	"slices"
	"testing"

	"vdtn/internal/buffer"
	"vdtn/internal/bundle"
	"vdtn/internal/core"
	"vdtn/internal/units"
	"vdtn/internal/xrand"
)

// TestPropertySortedViewMatchesBuffer drives each policy router
// (Epidemic, Spray-and-Wait, DirectDelivery and FirstContact, by seed)
// through random AddMessage, Receive, OnSent, Expire, same-pointer re-add,
// Refresh and NextSend steps under all five schedules, while its peers
// lose replicas and learn of deliveries they never got from it. After
// every step the buffer's entries, which the router walks, must hold
// their replicas' keys and equal a fresh stable sort of buf.Messages() by
// the schedule's Compare. At every Refresh the test builds its own
// reference queue with the copy-filter-sort Refresh and the protocol's
// whole relay rule, and a Random schedule's stream must be left where
// that Refresh left it; a router that builds its queue at Refresh must
// build exactly that one. Every NextSend, whether the router walks a
// snapshot or pops a queue it built, must return what that rule pops
// from the reference queue, which keeps its own head.
func TestPropertySortedViewMatchesBuffer(t *testing.T) {
	schedules := []func(*xrand.Rand) core.SchedulingPolicy{
		func(*xrand.Rand) core.SchedulingPolicy { return core.FIFOSchedule{} },
		func(r *xrand.Rand) core.SchedulingPolicy { return core.RandomSchedule{Rng: r} },
		func(*xrand.Rand) core.SchedulingPolicy { return core.LifetimeDESCSchedule{} },
		func(*xrand.Rand) core.SchedulingPolicy { return core.SizeASCSchedule{} },
		func(*xrand.Rand) core.SchedulingPolicy { return core.HopCountASCSchedule{} },
	}
	for _, mkSchedule := range schedules {
		for seed := uint64(1); seed <= 12; seed++ {
			name := fmt.Sprintf("%s/seed%d", mkSchedule(nil).Name(), seed)
			t.Run(name, func(t *testing.T) { driveView(t, seed, mkSchedule) })
		}
	}
}

// oldRelay is each policy protocol's whole relay rule as it stood before
// Refresh walked keys: whether a replica not destined to p goes to p.
type oldRelay func(m *bundle.Message, p Peer) bool

func driveView(t *testing.T, seed uint64, mkSchedule func(*xrand.Rand) core.SchedulingPolicy) {
	rng := xrand.New(seed)
	polRng := xrand.New(seed + 1000)
	schedule := mkSchedule(polRng)
	pol := core.Policy{Schedule: schedule, Drop: core.LifetimeASCDrop{}}
	var r *policyRouter
	var router Router
	var relay oldRelay
	switch seed % 4 {
	case 0:
		e := NewEpidemic(pol)
		r, router = &e.policyRouter, e
		relay = func(m *bundle.Message, p Peer) bool { return !p.Has(m.ID) }
	case 1:
		s := NewSprayAndWait(pol, 6, true)
		r, router = &s.policyRouter, s
		relay = func(m *bundle.Message, p Peer) bool { return m.Copies > 1 && !p.Has(m.ID) }
	case 2:
		d := NewDirectDelivery(pol)
		r, router = &d.policyRouter, d
		relay = func(*bundle.Message, Peer) bool { return false }
	case 3:
		f := NewFirstContact(pol)
		r, router = &f.policyRouter, f
		relay = func(m *bundle.Message, p Peer) bool { return !p.Has(m.ID) && !m.HasVisited(p.ID()) }
	}
	if walks := r.walkBy != nil; walks != schedule.KeepsCompareOrder() {
		t.Fatalf("%s walks snapshots: %v", schedule.Name(), walks)
	}
	buf := buffer.NewStore(units.MB(8)) // small enough to evict
	router.Attach(0, buf)
	peers := []Peer{newPeer(1, nil), newPeer(2, nil), newPeer(3, nil)}
	// ref holds, by peer id, what is left of the queue the copy-filter-sort
	// Refresh built at the peer's last Refresh: its head is ref[id][0].
	ref := make([][]*bundle.Message, len(peers)+1)

	now := 0.0
	nextID := bundle.ID(1)
	fresh := func() *bundle.Message {
		m := bundle.New(nextID, 0, 1+rng.IntN(4), units.Bytes(rng.UniformInt(200_000, 2_000_000)),
			now-rng.Float64()*600, 60+rng.Float64()*3000)
		nextID++
		return m
	}
	pick := func(b *buffer.Store) *bundle.Message {
		msgs := b.Messages()
		if len(msgs) == 0 {
			return nil
		}
		return msgs[rng.IntN(len(msgs))]
	}
	for step := 0; step < 250; step++ {
		now += rng.Float64() * 30
		p := peers[rng.IntN(len(peers))]
		op := rng.IntN(9)
		switch op {
		case 0: // a burst of local messages between two Refreshes
			for k := rng.IntN(3) + 1; k > 0; k-- {
				router.AddMessage(now, fresh())
			}
		case 1: // a relayed replica, now and then one that passed through p
			m := fresh()
			m.HopCount = rng.IntN(4)
			if rng.IntN(3) == 0 {
				m = m.ForwardTo(p.id, now)
			}
			wire := m.ForwardTo(0, now)
			wire.Copies = 1 + rng.IntN(4)
			router.Receive(now, wire, p)
		case 2: // a finished transfer
			if m := pick(buf); m != nil {
				delivered := m.To == p.id
				if delivered {
					p.delivered.Add(m.ID)
				} else if rng.IntN(2) == 0 {
					p.buf.Add(now, m.ForwardTo(p.id, now), nil)
				}
				router.OnSent(now, p, &Send{Msg: m, TransferCopies: m.Copies / 2}, delivered)
			}
		case 3:
			buf.Expire(now)
		case 4: // the same pointer removed and stored again
			if m := pick(buf); m != nil {
				buf.Remove(m.ID)
				copies := m.Copies
				router.AddMessage(now, m)
				// Spray-and-Wait's AddMessage grants a created message its
				// whole budget. A built queue left out what a budget raised
				// after Refresh lets through; a snapshot does not, so a
				// replica it walks keeps the budget it had, as in every
				// flow of a run: a budget only falls while its replica is
				// stored. TestSnapshotOffersRegrantedBudget pins what a
				// snapshot does with a raised budget.
				if r.walkBy != nil {
					m.Copies = copies
				}
			}
		case 5: // the peer loses a replica: evicted, delivered on or expired
			if rng.IntN(2) == 0 {
				if m := pick(p.buf); m != nil {
					p.buf.Remove(m.ID)
				}
			} else {
				p.buf.Expire(now + rng.Float64()*600)
			}
		case 6: // the peer received an id as destination from someone else
			if nextID > 1 {
				p.delivered.Add(bundle.ID(1 + rng.IntN(int(nextID-1))))
			}
		case 7:
			state := *polRng
			router.Refresh(now, p)
			var after xrand.Rand
			ref[p.id], after = oldRefresh(now, buf, relay, p, mkSchedule, state)
			if after != *polRng {
				t.Fatalf("step %d: Refresh drew differently from copy-filter-sort Refresh", step)
			}
			if r.walkBy == nil {
				sq := r.queues.at(p.id)
				if got := sq.msgs[sq.head:]; !slices.Equal(got, ref[p.id]) {
					t.Fatalf("step %d: Refresh queued %v, copy-filter-sort Refresh %v", step, msgIDs(got), msgIDs(ref[p.id]))
				}
			}
		case 8: // a pop, checked against the whole rule on the reference queue
			var want *bundle.Message
			for want == nil && len(ref[p.id]) > 0 {
				m := ref[p.id][0]
				ref[p.id] = ref[p.id][1:]
				if buf.Has(m.ID) && !m.Expired(now) && !p.HasDelivered(m.ID) && (m.To == p.ID() || relay(m, p)) {
					want = m
				}
			}
			var got *bundle.Message
			if s := router.NextSend(now, p); s != nil {
				got = s.Msg
			}
			if got != want {
				t.Fatalf("step %d: NextSend popped %v, whole rule %v", step, got, want)
			}
		}

		if err := buf.CheckInvariants(); err != nil {
			t.Fatalf("step %d (op %d): %v", step, op, err)
		}
		want := buf.Messages()
		slices.SortStableFunc(want, schedule.Compare)
		if got := sortedReplicas(buf); !slices.Equal(got, want) {
			t.Fatalf("step %d (op %d): sorted buffer %v, fresh sort %v", step, op, msgIDs(got), msgIDs(want))
		}
	}
}

// oldRefresh is Refresh as it was before any sorted order: copy the buffer,
// filter it in insertion order by the protocol's whole relay rule, sort
// each group by Compare and hand it to Order. It runs the schedule on a
// copy of the stream state the real Refresh started from and returns the
// queue and the state it ends in.
func oldRefresh(now float64, buf *buffer.Store, relay oldRelay, p Peer,
	mkSchedule func(*xrand.Rand) core.SchedulingPolicy, state xrand.Rand) ([]*bundle.Message, xrand.Rand) {
	var deliverable, rest []*bundle.Message
	for _, m := range buf.Messages() {
		switch {
		case p.HasDelivered(m.ID):
		case m.To == p.ID():
			deliverable = append(deliverable, m)
		case relay(m, p):
			rest = append(rest, m)
		}
	}
	s := mkSchedule(&state)
	for _, group := range [][]*bundle.Message{deliverable, rest} {
		slices.SortStableFunc(group, s.Compare)
		s.Order(now, group)
	}
	return append(deliverable, rest...), state
}

// sortedReplicas returns the replicas of buf's entries, in their order.
func sortedReplicas(buf *buffer.Store) []*bundle.Message {
	var out []*bundle.Message
	for _, e := range buf.Sorted() {
		out = append(out, e.Msg())
	}
	return out
}

func msgIDs(msgs []*bundle.Message) []bundle.ID {
	out := make([]bundle.ID, len(msgs))
	for i, m := range msgs {
		out[i] = m.ID
	}
	return out
}

// TestPropertyMaxPropSortedViewMatchesBuffer drives a MaxProp router
// through random contacts with MaxProp and non-MaxProp peers (which move
// its cost epoch and bring acks that purge replicas), receives that evict,
// completed sends and deliveries, expiry and Refreshes; the bytes moved
// and the hop counts received shift its hop threshold. After every step
// the buffer's sorted replicas must equal a fresh stable sort of
// buf.Messages() by the order the store keeps, and every queue a
// ContactUp or Refresh builds must equal the copy-filter-sort queue under
// the current threshold.
func TestPropertyMaxPropSortedViewMatchesBuffer(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { driveMaxPropView(t, seed) })
	}
}

func driveMaxPropView(t *testing.T, seed uint64) {
	rng := xrand.New(seed)
	mx := NewMaxProp()
	buf := buffer.NewStore(units.MB(6)) // small enough to evict
	mx.Attach(0, buf)
	self := NewPeer(0, buf, new(bundle.IDSet), mx)
	peers := []Peer{newPeer(1, NewMaxProp()), newPeer(2, NewMaxProp()), newPeer(3, NewMaxProp()),
		newPeer(4, NewEpidemic(core.FIFOFIFO())), newPeer(5, nil)}
	open := make([]bool, len(peers))

	now := 0.0
	nextID := bundle.ID(1)
	fresh := func() *bundle.Message {
		m := bundle.New(nextID, 9, 1+rng.IntN(7), units.Bytes(rng.UniformInt(200_000, 1_500_000)),
			now-rng.Float64()*600, 60+rng.Float64()*3000)
		nextID++
		return m
	}
	buffered := func() *bundle.Message {
		msgs := buf.Messages()
		if len(msgs) == 0 {
			return nil
		}
		return msgs[rng.IntN(len(msgs))]
	}
	checkQueue := func(step int, p Peer) {
		t.Helper()
		sq := mx.queues.at(p.id)
		if got, want := sq.msgs[sq.head:], copyFilterSortMaxProp(mx, p); !slices.Equal(got, want) {
			t.Fatalf("step %d: queue to %d %v, copy-filter-sort queue %v", step, p.id, msgIDs(got), msgIDs(want))
		}
	}
	for step := 0; step < 300; step++ {
		now += rng.Float64() * 30
		i := rng.IntN(len(peers))
		p := peers[i]
		op := rng.IntN(8)
		switch op {
		case 0: // a contact: a new cost epoch, acks exchanged and purged
			if open[i] {
				mx.ContactDown(now, p)
			}
			if r, ok := p.router.(*MaxProp); ok {
				other := peers[rng.IntN(3)]
				if other != p { // the peer meets someone else first
					r.ContactUp(now, other)
					r.ContactDown(now, other)
				}
				r.ContactUp(now, self)
				r.ContactDown(now, self)
			}
			mx.ContactUp(now, p)
			open[i] = true
			checkQueue(step, p)
		case 1:
			mx.AddMessage(now, fresh())
		case 2, 3: // a relayed replica; its hop count and bytes move the threshold
			m := fresh()
			m.HopCount = rng.IntN(5)
			mx.Receive(now, m.ForwardTo(0, now), p)
		case 4: // a finished transfer
			if m := buffered(); m != nil {
				delivered := m.To == p.id
				if delivered {
					p.delivered.Add(m.ID)
				} else if rng.IntN(2) == 0 {
					p.buf.Add(now, m.ForwardTo(p.id, now), nil)
				}
				mx.OnSent(now, p, &Send{Msg: m}, delivered)
			}
		case 5: // a delivery elsewhere, acked by a MaxProp peer
			if m := buffered(); m != nil {
				if r, ok := peers[rng.IntN(3)].router.(*MaxProp); ok {
					r.OnDelivered(now, m)
				}
			}
		case 6:
			buf.Expire(now)
		case 7:
			if open[i] {
				mx.Refresh(now, p)
				checkQueue(step, p)
			}
		}

		if err := buf.CheckInvariants(); err != nil {
			t.Fatalf("step %d (op %d): %v", step, op, err)
		}
		want := buf.Messages()
		slices.SortStableFunc(want, mx.compare)
		if got := sortedReplicas(buf); !slices.Equal(got, want) {
			t.Fatalf("step %d (op %d): sorted buffer %v, fresh sort %v", step, op, msgIDs(got), msgIDs(want))
		}
	}
}

// copyFilterSortMaxProp is MaxProp's queue as it was built before the
// buffer kept its order: copy the buffer, filter it in insertion order,
// and sort the deliverables by id and the rest by the MaxProp order under
// the current hop threshold.
func copyFilterSortMaxProp(mx *MaxProp, p Peer) []*bundle.Message {
	t := mx.hopThreshold()
	var deliverable, rest []*bundle.Message
	for _, m := range mx.buf.Messages() {
		switch {
		case p.HasDelivered(m.ID):
		case m.To == p.ID():
			deliverable = append(deliverable, m)
		case !p.Has(m.ID) && !mx.acked.Has(m.ID) && !m.HasVisited(p.ID()):
			rest = append(rest, m)
		}
	}
	slices.SortFunc(deliverable, byID)
	slices.SortFunc(rest, func(a, b *bundle.Message) int { return mx.order(a, b, t) })
	return append(deliverable, rest...)
}
