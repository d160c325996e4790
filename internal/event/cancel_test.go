package event

import (
	"cmp"
	"slices"
	"testing"

	"vdtn/internal/xrand"
)

// TestRunUntilCheckStops: the checkpoint cuts execution between events at
// the requested stride, leaving the remaining events queued and the clock
// at the last fired event.
func TestRunUntilCheckStops(t *testing.T) {
	s := NewScheduler()
	var fired []float64
	for i := 1; i <= 10; i++ {
		tm := float64(i)
		s.At(tm, func(now float64) { fired = append(fired, now) })
	}
	stop := false
	cut := s.RunUntilCheck(100, 3, func() bool { return stop || len(fired) >= 6 })
	if !cut {
		t.Fatal("check did not cut the run")
	}
	// Stride 3: the check fires after events 3, 6, ... so the cut lands
	// exactly at 6 fired events.
	if len(fired) != 6 {
		t.Fatalf("fired %d events before the cut, want 6", len(fired))
	}
	if s.Now() != 6 {
		t.Fatalf("clock at %v after the cut, want 6 (the last fired event)", s.Now())
	}
	if s.Len() == 0 {
		t.Fatal("remaining events were drained by the cut")
	}

	// Resuming without the stop condition completes normally and advances
	// the clock to the horizon.
	if cut := s.RunUntilCheck(100, 3, func() bool { return false }); cut {
		t.Fatal("check cut a run it always approved")
	}
	if len(fired) != 10 || s.Now() != 100 {
		t.Fatalf("resume fired %d events, clock %v", len(fired), s.Now())
	}
}

// TestRunUntilCheckImmediate: a check true before the first event fires
// nothing.
func TestRunUntilCheckImmediate(t *testing.T) {
	s := NewScheduler()
	ran := false
	s.At(1, func(float64) { ran = true })
	if cut := s.RunUntilCheck(10, 1, func() bool { return true }); !cut {
		t.Fatal("immediate check did not cut")
	}
	if ran || s.Now() != 0 {
		t.Fatalf("immediate cut still ran events (now %v)", s.Now())
	}
}

// TestRunUntilCheckNilCheck: a nil check behaves exactly like RunUntil.
func TestRunUntilCheckNilCheck(t *testing.T) {
	s := NewScheduler()
	n := 0
	s.At(1, func(float64) { n++ })
	s.At(2, func(float64) { n++ })
	if cut := s.RunUntilCheck(5, 0, nil); cut {
		t.Fatal("nil check cut the run")
	}
	if n != 2 || s.Now() != 5 {
		t.Fatalf("nil-check run fired %d events, clock %v", n, s.Now())
	}
}

// TestCancelThenRescheduleAllocatesNothing: a handle the caller owns can
// be cancelled and queued again any number of times without allocating,
// and only its last scheduling fires.
func TestCancelThenRescheduleAllocatesNothing(t *testing.T) {
	s := NewScheduler()
	var h Handle
	fired := 0
	fn := Func(func(float64) { fired++ })
	s.Schedule(&h, 1, fn)
	allocs := testing.AllocsPerRun(100, func() {
		h.Cancel()
		s.Schedule(&h, 2, fn)
	})
	if allocs != 0 {
		t.Fatalf("cancel and reschedule allocate %v times", allocs)
	}
	s.RunUntil(10)
	if fired != 1 {
		t.Fatalf("handle fired %d times, want 1", fired)
	}
	if h.Scheduled() || s.Len() != 0 {
		t.Fatalf("after firing: Scheduled %v, Len %d", h.Scheduled(), s.Len())
	}
	// A fired handle is free again.
	s.Schedule(&h, 11, fn)
	s.RunUntil(20)
	if fired != 2 {
		t.Fatalf("rescheduled fired handle: fired %d times, want 2", fired)
	}
}

// TestRescheduleQueuedHandlePanics: a handle sits in the queue at most
// once, so queueing it again before it fires or is cancelled panics.
func TestRescheduleQueuedHandlePanics(t *testing.T) {
	s := NewScheduler()
	h := s.At(1, func(float64) {})
	defer func() {
		if recover() == nil {
			t.Fatal("rescheduling a queued handle did not panic")
		}
	}()
	s.Schedule(h, 2, func(float64) {})
}

// TestLenCountsLiveEvents: Cancel takes the event off the list, so Len
// counts only events still due to fire.
func TestLenCountsLiveEvents(t *testing.T) {
	s := NewScheduler()
	hs := make([]*Handle, 5)
	for i := range hs {
		hs[i] = s.At(float64(i+1), func(float64) {})
	}
	hs[0].Cancel()
	hs[3].Cancel()
	hs[3].Cancel() // a second cancel is a no-op
	if s.Len() != 3 {
		t.Fatalf("Len = %d after cancelling 2 of 5, want 3", s.Len())
	}
	s.RunUntil(2.5)
	if s.Len() != 2 {
		t.Fatalf("Len = %d after firing one, want 2", s.Len())
	}
}

// TestScheduledFalseAfterCancel: a cancelled handle, whether it sat at the
// root of the heap or inside it, reports itself unscheduled at once.
func TestScheduledFalseAfterCancel(t *testing.T) {
	s := NewScheduler()
	first := s.At(1, func(float64) {})
	inner := s.At(5, func(float64) {})
	s.At(3, func(float64) {})
	for _, h := range []*Handle{inner, first} {
		if !h.Scheduled() || !h.Cancel() || h.Scheduled() {
			t.Fatalf("handle at %v: Scheduled after Cancel", h.Time())
		}
	}
}

// TestPropertyCancelRescheduleOrder drives a pool of reused handles
// through random schedules, cancels and partial runs, against a model of
// each live handle's (time, seq): Len always equals the live count,
// events fire in (time, seq) order, and exactly the schedulings that were
// not cancelled fire.
func TestPropertyCancelRescheduleOrder(t *testing.T) {
	type key struct {
		time float64
		seq  int
	}
	order := func(a, b key) int {
		if a.time != b.time {
			return cmp.Compare(a.time, b.time)
		}
		return cmp.Compare(a.seq, b.seq)
	}
	for seed := uint64(1); seed <= 30; seed++ {
		rng := xrand.New(seed)
		s := NewScheduler()
		hs := make([]Handle, 16)
		live := map[int]key{} // handle index -> its pending scheduling
		var fired, want []key
		cancelled := map[key]bool{}
		seq := 0
		for op := 0; op < 300; op++ {
			i := rng.IntN(len(hs))
			_, queued := live[i]
			switch {
			case op%40 == 39:
				s.RunUntil(s.Now() + float64(rng.IntN(4)))
			case queued && rng.IntN(2) == 0:
				hs[i].Cancel()
				cancelled[live[i]] = true
				delete(live, i)
			case !queued:
				k := key{s.Now() + float64(rng.IntN(10)), seq}
				seq++
				s.Schedule(&hs[i], k.time, func(float64) {
					fired = append(fired, k)
					delete(live, i)
				})
				live[i] = k
				want = append(want, k)
			}
			if s.Len() != len(live) {
				t.Fatalf("seed %d op %d: Len %d, live %d", seed, op, s.Len(), len(live))
			}
		}
		s.Run()
		want = slices.DeleteFunc(want, func(k key) bool { return cancelled[k] })
		slices.SortFunc(want, order)
		if !slices.Equal(fired, want) || len(live) != 0 {
			t.Fatalf("seed %d: fired %v, want every uncancelled scheduling %v", seed, fired, want)
		}
	}
}
