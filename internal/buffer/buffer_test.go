package buffer

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"vdtn/internal/bundle"
	"vdtn/internal/core"
	"vdtn/internal/units"
	"vdtn/internal/xrand"
)

func msg(id bundle.ID, size units.Bytes, created, ttl float64) *bundle.Message {
	return bundle.New(id, 0, 1, size, created, ttl)
}

func TestNewStorePanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity did not panic")
		}
	}()
	NewStore(0)
}

func TestAddAndAccounting(t *testing.T) {
	s := NewStore(units.MB(10))
	m := msg(1, units.MB(3), 0, 3600)
	evicted, ok := s.Add(0, m, core.FIFODrop{})
	if !ok || len(evicted) != 0 {
		t.Fatalf("Add = %v, %v", evicted, ok)
	}
	if s.Len() != 1 || s.Used() != units.MB(3) || s.Free() != units.MB(7) {
		t.Fatalf("accounting wrong: len=%d used=%v free=%v", s.Len(), s.Used(), s.Free())
	}
	if !s.Has(1) {
		t.Fatal("Has(1) = false")
	}
	if got, ok := s.Get(1); !ok || got != m {
		t.Fatal("Get(1) failed")
	}
	if s.Occupancy() != 0.3 {
		t.Fatalf("Occupancy = %v", s.Occupancy())
	}
	s.check()
}

func TestAddDuplicateRejected(t *testing.T) {
	s := NewStore(units.MB(10))
	s.Add(0, msg(1, units.MB(1), 0, 3600), nil)
	evicted, ok := s.Add(0, msg(1, units.MB(1), 0, 3600), nil)
	if ok || evicted != nil {
		t.Fatal("duplicate Add accepted")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after duplicate add", s.Len())
	}
}

func TestAddOversizedRejectedWithoutEviction(t *testing.T) {
	s := NewStore(units.MB(5))
	s.Add(0, msg(1, units.MB(4), 0, 3600), nil)
	evicted, ok := s.Add(0, msg(2, units.MB(6), 0, 3600), core.FIFODrop{})
	if ok {
		t.Fatal("oversized message stored")
	}
	if len(evicted) != 0 {
		t.Fatalf("oversized add evicted %d messages", len(evicted))
	}
	if !s.Has(1) {
		t.Fatal("existing message flushed by oversized add")
	}
}

func TestEvictionFIFO(t *testing.T) {
	s := NewStore(units.MB(5))
	s.Add(100, withReceived(msg(1, units.MB(2), 0, 3600), 100), core.FIFODrop{})
	s.Add(200, withReceived(msg(2, units.MB(2), 0, 3600), 200), core.FIFODrop{})
	// 1 MB free; adding 3 MB must evict M1 then M2 (oldest first).
	evicted, ok := s.Add(300, msg(3, units.MB(3), 0, 3600), core.FIFODrop{})
	if !ok {
		t.Fatal("add failed")
	}
	if len(evicted) != 1 || evicted[0].ID != 1 {
		t.Fatalf("evicted %v, want [M1]", evicted)
	}
	if !s.Has(2) || !s.Has(3) || s.Has(1) {
		t.Fatal("wrong survivors")
	}
	// The evicted slice is reused: the next eviction reports only its
	// own victim, M3 (received at its creation, time 0).
	evicted, _ = s.Add(400, msg(4, units.MB(2), 0, 3600), core.FIFODrop{})
	if len(evicted) != 1 || evicted[0].ID != 3 {
		t.Fatalf("second eviction returned %v, want [M3]", evicted)
	}
	s.check()
}

func TestEvictionLifetimeASC(t *testing.T) {
	s := NewStore(units.MB(4))
	// M1 expires at 3600, M2 at 1800 (sooner), both 2 MB.
	s.Add(0, msg(1, units.MB(2), 0, 3600), core.LifetimeASCDrop{})
	s.Add(0, msg(2, units.MB(2), 0, 1800), core.LifetimeASCDrop{})
	evicted, ok := s.Add(10, msg(3, units.MB(2), 10, 7200), core.LifetimeASCDrop{})
	if !ok {
		t.Fatal("add failed")
	}
	if len(evicted) != 1 || evicted[0].ID != 2 {
		t.Fatalf("evicted %v, want [M2] (soonest expiry)", evicted)
	}
	s.check()
}

func TestEvictionMultipleVictims(t *testing.T) {
	s := NewStore(units.MB(4))
	s.Add(0, withReceived(msg(1, units.MB(1), 0, 3600), 1), core.FIFODrop{})
	s.Add(0, withReceived(msg(2, units.MB(1), 0, 3600), 2), core.FIFODrop{})
	s.Add(0, withReceived(msg(3, units.MB(1), 0, 3600), 3), core.FIFODrop{})
	evicted, ok := s.Add(10, msg(4, units.MB(3), 0, 3600), core.FIFODrop{})
	if !ok {
		t.Fatal("add failed")
	}
	if len(evicted) != 2 || evicted[0].ID != 1 || evicted[1].ID != 2 {
		t.Fatalf("evicted %v, want [M1 M2]", evicted)
	}
	s.check()
}

func TestAddWithoutDropPolicyFailsOnOverflow(t *testing.T) {
	s := NewStore(units.MB(2))
	s.Add(0, msg(1, units.MB(2), 0, 3600), nil)
	_, ok := s.Add(0, msg(2, units.MB(1), 0, 3600), nil)
	if ok {
		t.Fatal("overflow add without policy succeeded")
	}
	if !s.Has(1) || s.Has(2) {
		t.Fatal("store mutated by failed add")
	}
}

func TestRemove(t *testing.T) {
	s := NewStore(units.MB(10))
	s.Add(0, msg(1, units.MB(1), 0, 3600), nil)
	s.Add(0, msg(2, units.MB(2), 0, 3600), nil)
	got := s.Remove(1)
	if got == nil || got.ID != 1 {
		t.Fatalf("Remove(1) = %v", got)
	}
	if s.Has(1) || s.Used() != units.MB(2) {
		t.Fatal("remove accounting wrong")
	}
	if s.Remove(99) != nil {
		t.Fatal("Remove of absent id returned a message")
	}
	s.check()
}

func TestMessagesInsertionOrderSnapshot(t *testing.T) {
	s := NewStore(units.MB(10))
	for i := 1; i <= 5; i++ {
		s.Add(0, msg(bundle.ID(i), units.MB(1), 0, 3600), nil)
	}
	snap := s.Messages()
	for i, m := range snap {
		if m.ID != bundle.ID(i+1) {
			t.Fatalf("snapshot order: %v", snap)
		}
	}
	// Mutating the snapshot slice must not affect the store.
	snap[0] = nil
	if !s.Has(1) {
		t.Fatal("snapshot aliased store internals")
	}
}

func TestExpire(t *testing.T) {
	s := NewStore(units.MB(10))
	s.Add(0, msg(1, units.MB(1), 0, 100), nil)  // expires at 100
	s.Add(0, msg(2, units.MB(1), 0, 500), nil)  // expires at 500
	s.Add(0, msg(3, units.MB(1), 50, 100), nil) // expires at 150
	dead := s.Expire(200)
	if len(dead) != 2 || dead[0].ID != 1 || dead[1].ID != 3 {
		t.Fatalf("Expire(200) = %v, want [M1 M3]", dead)
	}
	if !s.Has(2) || s.Len() != 1 {
		t.Fatal("survivor wrong")
	}
	if more := s.Expire(200); len(more) != 0 {
		t.Fatalf("second Expire removed %v", more)
	}
	// The returned slice is reused: a later expiry reports only its own.
	if last := s.Expire(500); len(last) != 1 || last[0].ID != 2 {
		t.Fatalf("Expire(500) = %v, want [M2]", last)
	}
	s.check()
}

func TestExpireBoundaryInclusive(t *testing.T) {
	s := NewStore(units.MB(1))
	s.Add(0, msg(1, units.KB(500), 0, 100), nil)
	if dead := s.Expire(99.999); len(dead) != 0 {
		t.Fatal("expired before deadline")
	}
	if dead := s.Expire(100); len(dead) != 1 {
		t.Fatal("not expired at deadline")
	}
}

func withReceived(m *bundle.Message, at float64) *bundle.Message {
	m.ReceivedAt = at
	return m
}

// Property: whatever sequence of adds/removes/expiries happens, the buffer
// never exceeds capacity and its internal accounting stays consistent: the
// dense id index, the deadline bound and the sorted replicas (check), and
// membership against a model. Each built-in schedule has a leg whose store
// starts sorting by its Compare at a random step: before it Sorted() must
// equal Messages(), and from then on a stable sort of Messages(). Ids
// include 0 and sparse large values, removed replicas are stored again
// under the same pointer, every drop policy evicts, and some expiries land
// exactly on a stored deadline.
func TestPropertyCapacityInvariant(t *testing.T) {
	schedules := []core.SchedulingPolicy{core.FIFOSchedule{}, core.RandomSchedule{}, core.LifetimeDESCSchedule{},
		core.SizeASCSchedule{}, core.HopCountASCSchedule{}}
	for _, schedule := range schedules {
		t.Run(schedule.Name(), func(t *testing.T) { checkCapacityInvariant(t, schedule) })
	}
}

func checkCapacityInvariant(t *testing.T, schedule core.SchedulingPolicy) {
	if err := quick.Check(func(seed uint64, opsRaw uint8) bool {
		rng := xrand.New(seed)
		ops := int(opsRaw)%200 + 20
		sortAt := rng.IntN(ops)
		s := NewStore(units.MB(10))
		now := 0.0
		nextID := bundle.ID(0)
		var removed []*bundle.Message
		held := map[*bundle.Message]bool{} // model: the stored replicas
		policies := []core.DropPolicy{core.FIFODrop{}, core.LifetimeASCDrop{}, core.MOFODrop{},
			core.SizeDESCDrop{}, core.OldestAgeDrop{}, nil}
		forget := func(dead []*bundle.Message) {
			for _, m := range dead {
				delete(held, m)
				removed = append(removed, m)
			}
		}
		for i := 0; i < ops; i++ {
			if i == sortAt {
				s.SortBy(schedule.Compare)
			}
			now += rng.Float64() * 60
			var stored *bundle.Message
			switch rng.IntN(6) {
			case 0, 1: // add a fresh message, now and then under a sparse large id
				id := nextID
				nextID++
				if rng.IntN(5) == 0 {
					id = bundle.ID(1<<16 + rng.IntN(1<<16))
				}
				size := units.Bytes(rng.UniformInt(100_000, 4_000_000))
				ttl := 60 + rng.Float64()*10000
				stored = bundle.New(id, 0, 1, size, now-rng.Float64()*600, ttl)
				stored.ReceivedAt = now
				stored.HopCount = rng.IntN(4)
				stored.Forwards = rng.IntN(3)
			case 2: // store a removed replica again, same pointer
				if len(removed) > 0 {
					stored = removed[rng.IntN(len(removed))]
				}
			case 3: // remove random known id
				if s.Len() > 0 {
					victim := s.Messages()[rng.IntN(s.Len())]
					forget([]*bundle.Message{s.Remove(victim.ID)})
				}
			case 4: // expire
				forget(s.Expire(now))
			case 5: // expire exactly at a stored deadline
				if s.Len() > 0 {
					m := s.Messages()[rng.IntN(s.Len())]
					now = max(now, m.ExpiresAt())
					dead := s.Expire(now)
					if m.ExpiresAt() == now && !slices.Contains(dead, m) {
						return false
					}
					forget(dead)
				}
			}
			if stored != nil && !s.Has(stored.ID) {
				evicted, ok := s.Add(now, stored, policies[rng.IntN(len(policies))])
				forget(evicted)
				if ok {
					held[stored] = true
					removed = slices.DeleteFunc(removed, func(m *bundle.Message) bool { return m == stored })
				}
			}
			if s.Used() > s.Capacity() || s.Len() != len(held) {
				return false
			}
			for m := range held {
				if got, ok := s.Get(m.ID); !ok || got != m {
					return false
				}
			}
			want := s.Messages()
			if i >= sortAt {
				slices.SortStableFunc(want, schedule.Compare)
			}
			if !slices.Equal(s.Sorted(), want) {
				t.Logf("seed %d step %d: Sorted() %v, want %v", seed, i, s.Sorted(), want)
				return false
			}
			s.check()
		}
		return true
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeIDPanics(t *testing.T) {
	s := NewStore(units.MB(1))
	if s.Has(-1) || s.Remove(-1) != nil {
		t.Fatal("negative id reported stored")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("storing a negative id did not panic")
		}
	}()
	s.Add(0, msg(-1, units.KB(1), 0, 60), nil)
}

// Expire skips its scan while now is below every deadline, and tightens
// the bound when it does scan.
func TestExpireDeadlineBound(t *testing.T) {
	s := NewStore(units.MB(10))
	s.Add(0, msg(1, units.MB(1), 0, 500), nil)
	s.Add(0, msg(2, units.MB(1), 0, 100), nil)
	if s.deadline != 100 {
		t.Fatalf("bound %v, want 100", s.deadline)
	}
	s.Remove(2) // the bound stays a lower bound
	if dead := s.Expire(100); len(dead) != 0 || s.deadline != 500 {
		t.Fatalf("Expire(100) = %v, bound %v; want nothing and 500", dead, s.deadline)
	}
	if dead := s.Expire(500); len(dead) != 1 || !math.IsInf(s.deadline, 1) {
		t.Fatalf("Expire(500) = %v, bound %v", dead, s.deadline)
	}
	s.check()
}

// Property: Add either stores the message or leaves the store unchanged
// (failed adds are atomic), and eviction frees exactly enough space.
func TestPropertyAddAtomicity(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		rng := xrand.New(seed)
		s := NewStore(units.MB(5))
		now := 0.0
		for i := 1; i <= 50; i++ {
			now += 1
			size := units.Bytes(rng.UniformInt(500_000, 6_000_000))
			m := bundle.New(bundle.ID(i), 0, 1, size, now, 3600)
			before := s.Len()
			usedBefore := s.Used()
			evicted, ok := s.Add(now, m, core.LifetimeASCDrop{})
			if ok {
				if !s.Has(m.ID) {
					return false
				}
				var freed units.Bytes
				for _, e := range evicted {
					freed += e.Size
				}
				if s.Used() != usedBefore-freed+m.Size {
					return false
				}
			} else {
				// Rejected: nothing changed.
				if s.Len() != before || s.Used() != usedBefore || len(evicted) != 0 {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAddEvict(b *testing.B) {
	rng := xrand.New(1)
	s := NewStore(units.MB(100))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		size := units.Bytes(rng.UniformInt(500_000, 2_000_000))
		m := bundle.New(bundle.ID(i+1), 0, 1, size, float64(i), 3600)
		s.Add(float64(i), m, core.LifetimeASCDrop{})
	}
}
