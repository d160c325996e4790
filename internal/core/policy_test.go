package core

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"vdtn/internal/bundle"
	"vdtn/internal/units"
	"vdtn/internal/xrand"
)

// mk builds a message replica with the fields the policies key on.
func mk(id bundle.ID, receivedAt, created, ttl float64) *bundle.Message {
	m := bundle.New(id, 0, 1, units.KB(500), created, ttl)
	m.ReceivedAt = receivedAt
	return m
}

// order runs s the way routers do: msgs sorted by Compare, then Order.
func order(s SchedulingPolicy, now float64, msgs []*bundle.Message) {
	slices.SortFunc(msgs, s.Compare)
	s.Order(now, msgs)
}

func ids(msgs []*bundle.Message) []bundle.ID {
	out := make([]bundle.ID, len(msgs))
	for i, m := range msgs {
		out[i] = m.ID
	}
	return out
}

func TestFIFOScheduleOrdersByArrival(t *testing.T) {
	msgs := []*bundle.Message{
		mk(1, 300, 0, 3600),
		mk(2, 100, 0, 3600),
		mk(3, 200, 0, 3600),
	}
	order(FIFOSchedule{}, 500, msgs)
	want := []bundle.ID{2, 3, 1}
	for i, id := range ids(msgs) {
		if id != want[i] {
			t.Fatalf("FIFO order = %v, want %v", ids(msgs), want)
		}
	}
}

func TestFIFOScheduleTieBreaksOnID(t *testing.T) {
	msgs := []*bundle.Message{
		mk(9, 100, 0, 3600),
		mk(2, 100, 0, 3600),
		mk(5, 100, 0, 3600),
	}
	order(FIFOSchedule{}, 500, msgs)
	want := []bundle.ID{2, 5, 9}
	for i, id := range ids(msgs) {
		if id != want[i] {
			t.Fatalf("tie-break order = %v, want %v", ids(msgs), want)
		}
	}
}

func TestLifetimeDESCOrdersByRemainingTTL(t *testing.T) {
	now := 1000.0
	msgs := []*bundle.Message{
		mk(1, 0, 500, units.Minutes(30)), // expires 2300, remaining 1300
		mk(2, 0, 0, units.Minutes(90)),   // expires 5400, remaining 4400
		mk(3, 0, 900, units.Minutes(10)), // expires 1500, remaining 500
	}
	order(LifetimeDESCSchedule{}, now, msgs)
	want := []bundle.ID{2, 1, 3} // longest remaining TTL first
	for i, id := range ids(msgs) {
		if id != want[i] {
			t.Fatalf("LifetimeDESC order = %v, want %v", ids(msgs), want)
		}
	}
}

func TestLifetimeDESCIsTimeDependent(t *testing.T) {
	// Ordering is on *remaining* TTL, that is on the deadline: a young
	// short-TTL message can outrank an old long-TTL one, and the relative
	// order of two messages never changes as time passes (both age at the
	// same rate) — verify the policy uses remaining lifetime, not total TTL.
	a := mk(1, 0, 0, units.Minutes(60))    // expires 3600
	b := mk(2, 0, 3000, units.Minutes(20)) // expires 4200
	msgs := []*bundle.Message{a, b}
	order(LifetimeDESCSchedule{}, 3500, msgs)
	if msgs[0].ID != 2 {
		t.Fatalf("remaining-TTL ordering wrong: got %v first (total-TTL ordering?)", msgs[0].ID)
	}
}

// TestLifetimePoliciesOrderRoundingTiesByDeadline pins the time-free
// order. At now = 2^-41 the deadlines 4098 and the next float above it
// leave remaining lifetimes that both round to 4098, yet the later
// deadline must still be scheduled first and the earlier one dropped
// first, whichever of the two has the smaller id.
func TestLifetimePoliciesOrderRoundingTiesByDeadline(t *testing.T) {
	now := math.Ldexp(1, -41)
	for _, id := range [][2]bundle.ID{{1, 2}, {2, 1}} {
		early, late := mk(id[0], 0, 0, 4098), mk(id[1], 0, 0, math.Nextafter(4098, math.Inf(1)))
		if early.RemainingTTL(now) != late.RemainingTTL(now) {
			t.Fatal("fixture: remaining lifetimes do not round to a tie")
		}
		msgs := []*bundle.Message{early, late}
		order(LifetimeDESCSchedule{}, now, msgs)
		if msgs[0] != late {
			t.Errorf("ids %v: LifetimeDESC sent %v first, want the later deadline %v", id, msgs[0].ID, late.ID)
		}
		if v := msgs[(LifetimeASCDrop{}).Victim(now, msgs)]; v != early {
			t.Errorf("ids %v: LifetimeASC dropped %v, want the earlier deadline %v", id, v.ID, early.ID)
		}
	}
}

func TestRandomScheduleIsPermutation(t *testing.T) {
	rng := xrand.New(1)
	if err := quick.Check(func(nRaw uint8) bool {
		n := int(nRaw%20) + 1
		msgs := make([]*bundle.Message, n)
		for i := range msgs {
			msgs[i] = mk(bundle.ID(i+1), float64(i), 0, 3600)
		}
		RandomSchedule{Rng: rng}.Order(0, msgs)
		seen := map[bundle.ID]bool{}
		for _, m := range msgs {
			if seen[m.ID] {
				return false
			}
			seen[m.ID] = true
		}
		return len(seen) == n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandomScheduleReproducible(t *testing.T) {
	build := func() []*bundle.Message {
		var msgs []*bundle.Message
		for i := 1; i <= 10; i++ {
			msgs = append(msgs, mk(bundle.ID(i), float64(100-i), 0, 3600))
		}
		return msgs
	}
	m1, m2 := build(), build()
	order(RandomSchedule{Rng: xrand.New(7)}, 0, m1)
	order(RandomSchedule{Rng: xrand.New(7)}, 0, m2)
	for i := range m1 {
		if m1[i].ID != m2[i].ID {
			t.Fatal("RandomSchedule not reproducible for equal streams")
		}
	}
}

func TestRandomScheduleCallerOrderIndependent(t *testing.T) {
	// Handed over in Compare order, as Order requires, the shuffled
	// result depends only on the message set and the stream, not on the
	// order the caller held the messages in.
	a := []*bundle.Message{mk(1, 10, 0, 60), mk(2, 20, 0, 60), mk(3, 30, 0, 60)}
	b := []*bundle.Message{a[2], a[0], a[1]}
	a2 := append([]*bundle.Message(nil), a...)
	order(RandomSchedule{Rng: xrand.New(3)}, 0, a2)
	order(RandomSchedule{Rng: xrand.New(3)}, 0, b)
	for i := range a2 {
		if a2[i].ID != b[i].ID {
			t.Fatal("RandomSchedule depends on caller slice order")
		}
	}
}

func TestRandomScheduleNilRngPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil rng did not panic")
		}
	}()
	RandomSchedule{}.Order(0, []*bundle.Message{mk(1, 0, 0, 60)})
}

func TestFIFODropPicksOldest(t *testing.T) {
	msgs := []*bundle.Message{
		mk(1, 300, 0, 3600),
		mk(2, 100, 0, 3600),
		mk(3, 200, 0, 3600),
	}
	if got := (FIFODrop{}).Victim(500, msgs); msgs[got].ID != 2 {
		t.Fatalf("FIFODrop chose %v, want M2 (oldest arrival)", msgs[got].ID)
	}
}

func TestLifetimeASCDropPicksSoonestExpiring(t *testing.T) {
	now := 1000.0
	msgs := []*bundle.Message{
		mk(1, 0, 500, units.Minutes(30)),
		mk(2, 0, 0, units.Minutes(90)),
		mk(3, 0, 900, units.Minutes(10)), // expires first
	}
	if got := (LifetimeASCDrop{}).Victim(now, msgs); msgs[got].ID != 3 {
		t.Fatalf("LifetimeASCDrop chose %v, want M3", msgs[got].ID)
	}
}

func TestDropPoliciesSingleMessage(t *testing.T) {
	msgs := []*bundle.Message{mk(1, 0, 0, 60)}
	if got := (FIFODrop{}).Victim(0, msgs); got != 0 {
		t.Fatalf("FIFODrop on singleton = %d", got)
	}
	if got := (LifetimeASCDrop{}).Victim(0, msgs); got != 0 {
		t.Fatalf("LifetimeASCDrop on singleton = %d", got)
	}
}

func TestDropPolicyDeterministicTieBreak(t *testing.T) {
	msgs := []*bundle.Message{
		mk(5, 100, 0, 3600),
		mk(2, 100, 0, 3600),
	}
	if got := (FIFODrop{}).Victim(0, msgs); msgs[got].ID != 2 {
		t.Fatal("FIFODrop tie-break not by ID")
	}
	if got := (LifetimeASCDrop{}).Victim(0, msgs); msgs[got].ID != 2 {
		t.Fatal("LifetimeASCDrop tie-break not by ID")
	}
}

// Property: LifetimeDESC scheduling and LifetimeASC dropping are exact
// opposites — the message scheduled last is the drop victim.
func TestLifetimePoliciesAreDuals(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%30) + 1
		rng := xrand.New(seed)
		msgs := make([]*bundle.Message, n)
		for i := range msgs {
			msgs[i] = mk(bundle.ID(i+1), 0, rng.Float64()*1000, 60+rng.Float64()*10000)
		}
		now := 1500.0
		victim := msgs[LifetimeASCDrop{}.Victim(now, msgs)]
		order(LifetimeDESCSchedule{}, now, msgs)
		return msgs[len(msgs)-1].ID == victim.ID
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyNames(t *testing.T) {
	rng := xrand.New(1)
	cases := []struct {
		p    Policy
		want string
	}{
		{FIFOFIFO(), "FIFO-FIFO"},
		{RandomFIFO(rng), "Random-FIFO"},
		{Lifetime(), "LifetimeDESC-LifetimeASC"},
	}
	for _, c := range cases {
		if got := c.p.Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
}

// TestPolicyTable prints the paper's Table I (combined scheduling-dropping
// policies); run with -v to see it. It also checks the table has exactly
// the three rows the paper evaluates.
func TestPolicyTable(t *testing.T) {
	table := TableI(xrand.New(1))
	if len(table) != 3 {
		t.Fatalf("Table I has %d rows, want 3", len(table))
	}
	t.Log("TABLE I. COMBINED SCHEDULING - DROPPING POLICIES")
	for _, p := range table {
		t.Logf("  %s - %s", p.Schedule.Name(), p.Drop.Name())
	}
	want := []string{"FIFO-FIFO", "Random-FIFO", "LifetimeDESC-LifetimeASC"}
	for i, p := range table {
		if p.Name() != want[i] {
			t.Fatalf("row %d = %q, want %q", i, p.Name(), want[i])
		}
	}
}
