package event

import (
	"fmt"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"vdtn/internal/xrand"
)

func TestFiresInTimeOrder(t *testing.T) {
	s := NewScheduler()
	var got []float64
	for _, tm := range []float64{5, 1, 3, 2, 4} {
		tm := tm
		s.At(tm, func(now float64) { got = append(got, now) })
	}
	s.Run()
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("events fired out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(7, func(float64) { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	s := NewScheduler()
	s.At(10, func(now float64) {
		if now != 10 {
			t.Fatalf("event saw now=%v, want 10", now)
		}
		if s.Now() != 10 {
			t.Fatalf("scheduler Now()=%v inside event", s.Now())
		}
	})
	s.Run()
	if s.Now() != 10 {
		t.Fatalf("final Now() = %v", s.Now())
	}
}

func TestAfterRelative(t *testing.T) {
	s := NewScheduler()
	var at float64
	s.At(5, func(now float64) {
		s.At(s.Now()+2.5, func(now2 float64) { at = now2 })
	})
	s.Run()
	if at != 7.5 {
		t.Fatalf("event 2.5 s after now fired at %v, want 7.5", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(10, func(float64) {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(5, func(float64) {})
}

func TestNilFuncPanics(t *testing.T) {
	s := NewScheduler()
	defer func() {
		if recover() == nil {
			t.Fatal("nil func did not panic")
		}
	}()
	s.At(1, nil)
}

func TestCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	h := s.At(5, func(float64) { fired = true })
	if !h.Scheduled() {
		t.Fatal("handle not scheduled")
	}
	if !h.Cancel() {
		t.Fatal("first Cancel returned false")
	}
	if h.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	if h.Scheduled() {
		t.Fatal("cancelled handle still scheduled")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelFromInsideEvent(t *testing.T) {
	s := NewScheduler()
	fired := false
	var h *Handle
	s.At(1, func(float64) { h.Cancel() })
	h = s.At(2, func(float64) { fired = true })
	s.Run()
	if fired {
		t.Fatal("event cancelled at t=1 still fired at t=2")
	}
}

func TestNilHandleSafe(t *testing.T) {
	var h *Handle
	if h.Cancel() {
		t.Fatal("nil handle Cancel returned true")
	}
	if h.Scheduled() {
		t.Fatal("nil handle Scheduled returned true")
	}
}

func TestRunUntilHorizon(t *testing.T) {
	s := NewScheduler()
	var fired []float64
	for _, tm := range []float64{1, 2, 3, 4, 5} {
		s.At(tm, func(now float64) { fired = append(fired, now) })
	}
	s.RunUntil(3)
	if len(fired) != 3 {
		t.Fatalf("RunUntil(3) fired %d events: %v", len(fired), fired)
	}
	if s.Now() != 3 {
		t.Fatalf("clock at %v after RunUntil(3)", s.Now())
	}
	s.RunUntil(10)
	if len(fired) != 5 {
		t.Fatalf("continuation fired %d events total", len(fired))
	}
	if s.Now() != 10 {
		t.Fatalf("clock at %v after RunUntil(10), want horizon", s.Now())
	}
}

func TestRunUntilExactHorizonInclusive(t *testing.T) {
	s := NewScheduler()
	fired := false
	s.At(5, func(float64) { fired = true })
	s.RunUntil(5)
	if !fired {
		t.Fatal("event exactly at horizon did not fire")
	}
}

func TestEvery(t *testing.T) {
	s := NewScheduler()
	var ticks []float64
	s.Every(0, 10, func(now float64) { ticks = append(ticks, now) })
	s.RunUntil(35)
	want := []float64{0, 10, 20, 30}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

// TestEveryTickOrderAmongSameTimeEvents pins where a tick takes its
// sequence number: after fn returns, so events fn schedules for the next
// tick's instant, and those scheduled before it, fire first.
func TestEveryTickOrderAmongSameTimeEvents(t *testing.T) {
	s := NewScheduler()
	var order []string
	note := func(name string) Func { return func(float64) { order = append(order, name) } }
	s.At(1, note("before"))
	s.Every(0, 1, func(now float64) {
		order = append(order, fmt.Sprint("tick", now))
		if now == 0 {
			s.At(1, note("inside"))
		}
	})
	s.At(1, note("after"))
	s.RunUntil(1.5)
	want := []string{"tick0", "before", "after", "inside", "tick1"}
	if !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestEveryTickAllocatesNothing(t *testing.T) {
	s := NewScheduler()
	ticks := 0
	s.Every(0, 1, func(float64) { ticks++ })
	s.RunUntil(10)
	if allocs := testing.AllocsPerRun(100, func() { s.RunUntil(s.Now() + 1) }); allocs != 0 {
		t.Fatalf("a tick allocates %v times", allocs)
	}
	if ticks != 112 {
		t.Fatalf("ticked %d times, want 112", ticks)
	}
}

func TestEveryBadIntervalPanics(t *testing.T) {
	s := NewScheduler()
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0) did not panic")
		}
	}()
	s.Every(0, 0, func(float64) {})
}

func TestEventsScheduledDuringRun(t *testing.T) {
	s := NewScheduler()
	depth := 0
	var chain Func
	chain = func(now float64) {
		depth++
		if depth < 100 {
			s.At(now+1, chain)
		}
	}
	s.At(0, chain)
	s.Run()
	if depth != 100 {
		t.Fatalf("chained scheduling reached depth %d, want 100", depth)
	}
	if s.Now() != 99 {
		t.Fatalf("clock = %v, want 99", s.Now())
	}
}

func TestFiredCounter(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 5; i++ {
		s.At(float64(i), func(float64) {})
	}
	h := s.At(10, func(float64) {})
	h.Cancel()
	s.Run()
	if s.Fired() != 5 {
		t.Fatalf("Fired() = %d, want 5 (cancelled events don't count)", s.Fired())
	}
}

// Property: with random times, execution order is always sorted by time and
// ties fire in scheduling order.
func TestPropertyTotalOrder(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		rng := xrand.New(seed)
		s := NewScheduler()
		type rec struct {
			time float64
			seq  int
		}
		var fired []rec
		for i := 0; i < n; i++ {
			i := i
			tm := float64(rng.IntN(20)) // coarse times force ties
			s.At(tm, func(now float64) { fired = append(fired, rec{now, i}) })
		}
		s.Run()
		if len(fired) != n {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].time < fired[i-1].time {
				return false
			}
			if fired[i].time == fired[i-1].time && fired[i].seq < fired[i-1].seq {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	rng := xrand.New(1)
	times := make([]float64, 1024)
	for i := range times {
		times[i] = rng.Float64() * 1000
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewScheduler()
		for _, tm := range times {
			s.At(tm, func(float64) {})
		}
		s.Run()
	}
}
