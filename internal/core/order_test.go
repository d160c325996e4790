package core

import (
	"slices"
	"testing"

	"vdtn/internal/bundle"
	"vdtn/internal/units"
	"vdtn/internal/xrand"
)

// orderFixture is a message set whose keys tie under every schedule, so
// only the id tie-break separates some pairs: two arrivals at 100, two
// deadlines at 4600, two sizes of 1 MB, two hop counts of 2.
func orderFixture() []*bundle.Message {
	type row struct {
		id                     bundle.ID
		received, created, ttl float64
		size                   units.Bytes
		hops                   int
	}
	rows := []row{
		{id: 9, received: 100, created: 0, ttl: 4600, size: units.MB(1), hops: 2},
		{id: 2, received: 300, created: 600, ttl: 4000, size: units.MB(3), hops: 0},
		{id: 7, received: 100, created: 50, ttl: 3000, size: units.MB(1), hops: 5},
		{id: 4, received: 50, created: 10, ttl: 6000, size: units.KB(200), hops: 2},
		{id: 5, received: 250, created: 0, ttl: 1200, size: units.MB(2), hops: 1},
		{id: 1, received: 400, created: 300, ttl: 2500, size: units.MB(5), hops: 3},
	}
	msgs := make([]*bundle.Message, len(rows))
	for i, r := range rows {
		m := bundle.New(r.id, 0, 1, r.size, r.created, r.ttl)
		m.ReceivedAt = r.received
		m.HopCount = r.hops
		msgs[i] = m
	}
	return msgs
}

// permutations calls fn with every ordering of msgs (Heap's algorithm).
func permutations(msgs []*bundle.Message, fn func([]*bundle.Message)) {
	p := slices.Clone(msgs)
	c := make([]int, len(p))
	fn(slices.Clone(p))
	for i := 0; i < len(p); {
		if c[i] < i {
			if i%2 == 0 {
				p[0], p[i] = p[i], p[0]
			} else {
				p[c[i]], p[i] = p[i], p[c[i]]
			}
			fn(slices.Clone(p))
			c[i]++
			i = 0
		} else {
			c[i] = 0
			i++
		}
	}
}

// TestScheduleOrderIndependentOfInputOrder pins what routers rely on when
// they sort their buffer by Compare and hand Order the result: for every
// schedule, every permutation of one message set orders to the same
// output, and Random consumes the same draws whatever the permutation.
func TestScheduleOrderIndependentOfInputOrder(t *testing.T) {
	const now, seed = 1000.0, 42
	msgs := orderFixture()
	schedules := []func(*xrand.Rand) SchedulingPolicy{
		func(*xrand.Rand) SchedulingPolicy { return FIFOSchedule{} },
		func(r *xrand.Rand) SchedulingPolicy { return RandomSchedule{Rng: r} },
		func(*xrand.Rand) SchedulingPolicy { return LifetimeDESCSchedule{} },
		func(*xrand.Rand) SchedulingPolicy { return SizeASCSchedule{} },
		func(*xrand.Rand) SchedulingPolicy { return HopCountASCSchedule{} },
	}
	for _, mkSchedule := range schedules {
		t.Run(mkSchedule(nil).Name(), func(t *testing.T) {
			refRng := xrand.New(seed)
			ref := slices.Clone(msgs)
			order(mkSchedule(refRng), now, ref)
			perms := 0
			permutations(msgs, func(p []*bundle.Message) {
				perms++
				rng := xrand.New(seed)
				order(mkSchedule(rng), now, p)
				if !slices.Equal(p, ref) {
					t.Fatalf("permutation %d ordered to %v, want %v", perms, ids(p), ids(ref))
				}
				if *rng != *refRng {
					t.Fatalf("permutation %d left the stream in a different state: draws depend on input order", perms)
				}
			})
			if perms != 720 {
				t.Fatalf("visited %d permutations, want 720", perms)
			}
		})
	}
}

// TestScheduleCompareAgreesWithOrder checks Compare is a strict total
// order on the fixture, that a deterministic Order leaves input in Compare
// order untouched, and that Random's Compare is the FIFO order its shuffle
// starts from.
// TestKeepsCompareOrderOnlyForNoOpOrders: the schedules that report
// KeepsCompareOrder leave any input as it is, whatever its order, and
// Random, which shuffles, does not report it.
func TestKeepsCompareOrderOnlyForNoOpOrders(t *testing.T) {
	msgs := orderFixture()
	slices.Reverse(msgs)
	for _, s := range []SchedulingPolicy{FIFOSchedule{}, LifetimeDESCSchedule{}, SizeASCSchedule{}, HopCountASCSchedule{}} {
		if !s.KeepsCompareOrder() {
			t.Fatalf("%s: KeepsCompareOrder = false", s.Name())
		}
		out := slices.Clone(msgs)
		s.Order(1000, out)
		if !slices.Equal(out, msgs) {
			t.Fatalf("%s: Order moved %v to %v", s.Name(), ids(msgs), ids(out))
		}
	}
	if (RandomSchedule{Rng: xrand.New(1)}).KeepsCompareOrder() {
		t.Fatal("Random: KeepsCompareOrder = true")
	}
}

func TestScheduleCompareAgreesWithOrder(t *testing.T) {
	const now = 1000.0
	msgs := orderFixture()
	for _, s := range []SchedulingPolicy{FIFOSchedule{}, LifetimeDESCSchedule{}, SizeASCSchedule{}, HopCountASCSchedule{}} {
		sorted := slices.Clone(msgs)
		slices.SortFunc(sorted, s.Compare)
		out := slices.Clone(sorted)
		s.Order(now, out)
		if !slices.Equal(out, sorted) {
			t.Fatalf("%s: Order moved Compare-ordered input %v to %v", s.Name(), ids(sorted), ids(out))
		}
		for _, a := range msgs {
			for _, b := range msgs {
				ab, ba := s.Compare(a, b), s.Compare(b, a)
				if (a == b) != (ab == 0) || ab != -ba {
					t.Fatalf("%s: Compare(%v,%v)=%d, Compare(%v,%v)=%d is not a strict total order", s.Name(), a.ID, b.ID, ab, b.ID, a.ID, ba)
				}
			}
		}
	}

	random := RandomSchedule{Rng: xrand.New(5)}
	for _, a := range msgs {
		for _, b := range msgs {
			if random.Compare(a, b) != (FIFOSchedule{}).Compare(a, b) {
				t.Fatalf("Random Compare(%v,%v) differs from FIFO's", a.ID, b.ID)
			}
		}
	}
	before := *random.Rng
	random.Compare(msgs[0], msgs[1])
	if *random.Rng != before {
		t.Fatal("Random Compare drew from its stream")
	}
	got := slices.Clone(msgs)
	order(random, now, got)
	want := slices.Clone(msgs)
	slices.SortFunc(want, random.Compare)
	xrand.New(5).Shuffle(len(want), func(i, j int) { want[i], want[j] = want[j], want[i] })
	if !slices.Equal(got, want) {
		t.Fatalf("Random Order = %v, want its Compare order shuffled: %v", ids(got), ids(want))
	}
}
