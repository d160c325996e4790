package core

import (
	"testing"
	"testing/quick"

	"vdtn/internal/bundle"
	"vdtn/internal/units"
	"vdtn/internal/xrand"
)

func TestSizeASCScheduleOrder(t *testing.T) {
	msgs := []*bundle.Message{
		bundle.New(1, 0, 1, units.MB(2), 0, 3600),
		bundle.New(2, 0, 1, units.KB(500), 0, 3600),
		bundle.New(3, 0, 1, units.MB(1), 0, 3600),
	}
	order(SizeASCSchedule{}, 0, msgs)
	want := []bundle.ID{2, 3, 1}
	for i, m := range msgs {
		if m.ID != want[i] {
			t.Fatalf("SizeASC order = %v, want %v", ids(msgs), want)
		}
	}
}

func TestHopCountASCScheduleOrder(t *testing.T) {
	a := mk(1, 0, 0, 3600)
	a.HopCount = 5
	b := mk(2, 0, 0, 3600)
	b.HopCount = 0
	c := mk(3, 0, 0, 3600)
	c.HopCount = 2
	msgs := []*bundle.Message{a, b, c}
	order(HopCountASCSchedule{}, 0, msgs)
	want := []bundle.ID{2, 3, 1}
	for i, m := range msgs {
		if m.ID != want[i] {
			t.Fatalf("HopASC order = %v, want %v", ids(msgs), want)
		}
	}
}

func TestMOFODropPicksMostForwarded(t *testing.T) {
	a := mk(1, 0, 0, 3600)
	a.Forwards = 1
	b := mk(2, 0, 0, 3600)
	b.Forwards = 7
	c := mk(3, 0, 0, 3600)
	msgs := []*bundle.Message{a, b, c}
	if got := (MOFODrop{}).Victim(0, msgs); msgs[got].ID != 2 {
		t.Fatalf("MOFO chose %v, want M2", msgs[got].ID)
	}
}

func TestMOFODropTieBreaksOnID(t *testing.T) {
	a := mk(5, 0, 0, 3600)
	b := mk(2, 0, 0, 3600)
	msgs := []*bundle.Message{a, b}
	if got := (MOFODrop{}).Victim(0, msgs); msgs[got].ID != 2 {
		t.Fatal("MOFO tie-break not by ID")
	}
}

func TestSizeDESCDropPicksLargest(t *testing.T) {
	msgs := []*bundle.Message{
		bundle.New(1, 0, 1, units.MB(1), 0, 3600),
		bundle.New(2, 0, 1, units.MB(2), 0, 3600),
		bundle.New(3, 0, 1, units.KB(700), 0, 3600),
	}
	if got := (SizeDESCDrop{}).Victim(0, msgs); msgs[got].ID != 2 {
		t.Fatalf("SizeDESC chose %v, want M2", msgs[got].ID)
	}
}

func TestOldestAgeDropPicksOldestCreation(t *testing.T) {
	msgs := []*bundle.Message{
		mk(1, 900, 300, 3600), // created at 300
		mk(2, 100, 100, 3600), // created at 100 (oldest) but received recently
		mk(3, 200, 200, 3600),
	}
	// Distinct from FIFO: FIFO would pick by ReceivedAt (M2 at 100 too
	// here), so give M2 a late arrival to separate the policies.
	msgs[1].ReceivedAt = 950
	if got := (OldestAgeDrop{}).Victim(1000, msgs); msgs[got].ID != 2 {
		t.Fatalf("OldestAge chose %v, want M2", msgs[got].ID)
	}
	if got := (FIFODrop{}).Victim(1000, msgs); msgs[got].ID != 3 {
		t.Fatalf("FIFO chose %v, want M3 (earliest arrival)", msgs[got].ID)
	}
}

// Property: every scheduling policy produces a permutation of its input,
// and every drop policy returns a valid index — across random message
// populations.
func TestAllPoliciesWellFormed(t *testing.T) {
	rng := xrand.New(77)
	schedules := []SchedulingPolicy{
		FIFOSchedule{}, RandomSchedule{Rng: rng}, LifetimeDESCSchedule{},
		SizeASCSchedule{}, HopCountASCSchedule{},
	}
	drops := []DropPolicy{
		FIFODrop{}, LifetimeASCDrop{}, MOFODrop{}, SizeDESCDrop{}, OldestAgeDrop{},
	}
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%40) + 1
		r := xrand.New(seed)
		build := func() []*bundle.Message {
			msgs := make([]*bundle.Message, n)
			for i := range msgs {
				m := bundle.New(bundle.ID(i+1), 0, 1,
					units.Bytes(r.UniformInt(1000, 2_000_000)),
					r.Float64()*1000, 60+r.Float64()*10000)
				m.ReceivedAt = r.Float64() * 2000
				m.HopCount = r.IntN(10)
				m.Forwards = r.IntN(10)
				msgs[i] = m
			}
			return msgs
		}
		now := 2000.0
		for _, s := range schedules {
			msgs := build()
			order(s, now, msgs)
			seen := map[bundle.ID]bool{}
			for _, m := range msgs {
				if seen[m.ID] {
					return false
				}
				seen[m.ID] = true
			}
			if len(seen) != n {
				return false
			}
		}
		for _, d := range drops {
			msgs := build()
			v := d.Victim(now, msgs)
			if v < 0 || v >= len(msgs) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
