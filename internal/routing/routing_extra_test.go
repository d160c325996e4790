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

func newTestRand(seed uint64) *xrand.Rand { return xrand.New(seed) }

// --- MaxProp: adaptive threshold and priority order -----------------------

func TestMaxPropThresholdAdaptsToTransfers(t *testing.T) {
	mx := NewMaxProp()
	buf := buffer.NewStore(units.MB(10))
	mx.Attach(0, buf)
	p := newPeer(1, NewMaxProp())

	// Cold start: no head-start zone.
	if got := mx.hopThreshold(); got != 0 {
		t.Fatalf("cold threshold = %d", got)
	}

	// One contact moving ~2 MB: the protected zone becomes ~2 MB.
	mx.ContactUp(0, p)
	m := bundle.New(1, 9, 5, units.MB(2), 0, 3600)
	mx.Receive(1, m.ForwardTo(0, 1), p)
	mx.ContactDown(1, p)

	// Buffer holds one 2 MB hop-1 message; avg bytes/contact = 2 MB, so
	// that message is inside the zone and the threshold sits above its
	// hop count.
	if got := mx.hopThreshold(); got != 2 {
		t.Fatalf("threshold after 2MB contact = %d, want 2", got)
	}
}

func TestMaxPropPriorityHeadStartBeforeCost(t *testing.T) {
	mx := NewMaxProp()
	buf := buffer.NewStore(units.MB(100))
	mx.Attach(0, buf)

	// Know destination 7 perfectly (cost 0); leave 8 unknown (+Inf).
	// The same contact receives 2 MB, so the adaptive head-start zone is
	// 2 MB and, with only a hop-1 message buffered, the threshold is 2.
	p7 := newPeer(7, NewMaxProp())
	mx.ContactUp(0, p7)
	carried := bundle.New(3, 9, 7, units.MB(2), 0, 3600)
	mx.Receive(1, carried.ForwardTo(0, 1), p7)
	mx.ContactDown(1, p7)
	if got := mx.hopThreshold(); got != 2 {
		t.Fatalf("threshold = %d, want 2", got)
	}

	young := bundle.New(1, 9, 8, units.KB(100), 0, 3600) // hop 0 < t: head start
	young.HopCount = 0
	old := bundle.New(2, 9, 7, units.KB(100), 0, 3600) // hop 9 >= t: cost zone
	old.HopCount = 9

	// The buffer's order, which compare reads, takes the new threshold at
	// the next Refresh.
	mx.Refresh(2, newPeer(5, nil))
	msgs := []*bundle.Message{old, young}
	slices.SortFunc(msgs, mx.compare)
	// The young message wins despite its destination costing +Inf while
	// the old one's costs 0 — the head start trumps cost, which is the
	// whole point of MaxProp's threshold.
	if msgs[0].ID != 1 {
		t.Fatalf("young message not prioritized: %v first", msgs[0].ID)
	}
}

func TestMaxPropCostOrderingAboveThreshold(t *testing.T) {
	mx := NewMaxProp() // threshold 0: pure cost ordering
	buf := buffer.NewStore(units.MB(100))
	mx.Attach(0, buf)

	// f(7) = 0.75, f(2) = 0.25 after three contacts.
	p7 := newPeer(7, NewMaxProp())
	p2 := newPeer(2, NewMaxProp())
	mx.ContactUp(0, p7)
	mx.ContactDown(0, p7)
	mx.ContactUp(1, p2)
	mx.ContactDown(1, p2)
	mx.ContactUp(2, p7)
	mx.ContactDown(2, p7)

	to7 := bundle.New(1, 9, 7, units.KB(100), 0, 3600) // cost 0.25
	to2 := bundle.New(2, 9, 2, units.KB(100), 0, 3600) // cost 0.75
	msgs := []*bundle.Message{to2, to7}
	slices.SortFunc(msgs, mx.compare)
	if msgs[0].ID != 1 {
		t.Fatalf("cheapest-destination message not first: got %v", msgs[0].ID)
	}
	if got := mx.Cost(7); math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("Cost(7) = %v, want 0.25", got)
	}
	if got := mx.Cost(2); math.Abs(got-0.75) > 1e-9 {
		t.Fatalf("Cost(2) = %v, want 0.75", got)
	}
}

// --- PRoPHET: aging garbage collection and refresh -------------------------

func TestProphetAgingGarbageCollects(t *testing.T) {
	cfg := DefaultProphetConfig()
	pr := NewProphet(cfg)
	attach(pr, 0)
	peer := newPeer(1, NewProphet(cfg))
	pr.ContactUp(0, peer)
	pr.ContactDown(0, peer)
	// After a very long time the entry decays below the floor and is
	// dropped from the table entirely.
	if p := pr.Predictability(1e7, 1); p != 0 {
		t.Fatalf("ancient predictability = %v, want GC to 0", p)
	}
	if slices.ContainsFunc(pr.preds, func(p float64) bool { return p != 0 }) {
		t.Fatalf("preds table not garbage-collected: %v", pr.preds)
	}
}

func TestProphetRefreshSeesNewMessages(t *testing.T) {
	cfg := DefaultProphetConfig()
	a := NewProphet(cfg)
	attach(a, 0)
	b := NewProphet(cfg)
	bBuf := buffer.NewStore(units.MB(100))
	b.Attach(1, bBuf)

	bPeer := NewPeer(1, bBuf, new(bundle.IDSet), b)
	a.ContactUp(0, bPeer)
	if s := a.NextSend(0, bPeer); s != nil {
		t.Fatalf("empty buffer offered %v", s.Msg.ID)
	}
	// A message destined to the peer arrives mid-contact; Refresh must
	// requeue it without a new encounter boost.
	before := a.Predictability(1, 1)
	a.AddMessage(1, msgTo(1, 0, 1, 1, 3600))
	a.Refresh(1, bPeer)
	after := a.Predictability(1, 1)
	if math.Abs(before-after) > 1e-12 {
		t.Fatalf("Refresh changed predictability: %v -> %v", before, after)
	}
	s := a.NextSend(1, bPeer)
	if s == nil || s.Msg.ID != 1 {
		t.Fatal("refreshed queue missing the new deliverable")
	}
}

// --- Spray and Wait: receive side ------------------------------------------

func TestSprayAndWaitReceiveKeepsWireCopies(t *testing.T) {
	s := NewSprayAndWait(core.FIFOFIFO(), 12, true)
	buf := attach(s, 1)
	from := newPeer(0, NewSprayAndWait(core.FIFOFIFO(), 12, true))
	wire := msgTo(1, 0, 9, 0, 3600).ForwardTo(1, 5)
	wire.Copies = 6 // handed half the budget
	if ok, _ := s.Receive(5, wire, from); !ok {
		t.Fatal("receive failed")
	}
	got, _ := buf.Get(1)
	if got.Copies != 6 {
		t.Fatalf("stored budget = %d, want the wire's 6", got.Copies)
	}
}

func TestSprayAndWaitSingleCopyReceiverWaits(t *testing.T) {
	s := NewSprayAndWait(core.FIFOFIFO(), 12, true)
	attach(s, 1)
	wire := msgTo(1, 0, 9, 0, 3600).ForwardTo(1, 5)
	wire.Copies = 1
	s.Receive(5, wire, newPeer(0, NewSprayAndWait(core.FIFOFIFO(), 12, true)))

	relay := newPeer(2, NewSprayAndWait(core.FIFOFIFO(), 12, true))
	s.ContactUp(6, relay)
	if send := s.NextSend(6, relay); send != nil {
		t.Fatal("wait-phase receiver sprayed its single copy")
	}
}

// --- Epidemic: Random policy stream discipline ------------------------------

func TestEpidemicRandomPolicyQueueReproducible(t *testing.T) {
	build := func(seed uint64) []bundle.ID {
		e := NewEpidemic(core.RandomFIFO(newTestRand(seed)))
		attach(e, 0)
		peer := newPeer(1, NewEpidemic(core.FIFOFIFO()))
		for i := 1; i <= 8; i++ {
			e.AddMessage(float64(i), msgTo(bundle.ID(i), 0, 9, float64(i), 3600))
		}
		e.ContactUp(10, peer)
		return drain(e, 10, peer)
	}
	a, b := build(5), build(5)
	if len(a) != 8 || len(b) != 8 {
		t.Fatalf("drained %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Random policy queues differ for equal streams")
		}
	}
	c := build(6)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different streams produced identical random order")
	}
}
