// Package event implements the discrete-event core of the simulator: a
// simulation clock and a future-event list with deterministic total order.
//
// Events are callbacks scheduled at absolute simulation times. Two events
// scheduled for the same instant fire in scheduling order (a monotonically
// increasing sequence number breaks ties), so a simulation run is a pure
// function of its inputs — the property every experiment in this repository
// leans on. Handles returned by the scheduling calls support cancellation,
// which the wireless substrate uses to abort in-flight transfers when a
// contact breaks.
package event

import (
	"container/heap"
	"fmt"
)

// Func is an event body. It runs with the clock set to the event's time.
type Func func(now float64)

// Handle identifies a scheduled event and allows cancelling it.
// A nil *Handle is inert: Cancel and Scheduled are no-ops.
type Handle struct {
	time  float64
	seq   uint64
	index int // heap index, -1 once fired or cancelled
	fn    Func
}

// Cancel removes the event from the schedule. Cancelling an event that has
// already fired or been cancelled is a no-op. Cancel reports whether the
// event was actually descheduled by this call.
func (h *Handle) Cancel() bool {
	if h == nil || h.index < 0 || h.fn == nil {
		return false
	}
	h.fn = nil // break reference cycles promptly
	return true
}

// Scheduled reports whether the event is still pending.
func (h *Handle) Scheduled() bool { return h != nil && h.index >= 0 && h.fn != nil }

// Time returns the simulation time the event fires at.
func (h *Handle) Time() float64 { return h.time }

// eventQueue is a binary min-heap over (time, seq).
type eventQueue []*Handle

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	h := x.(*Handle)
	h.index = len(*q)
	*q = append(*q, h)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	h := old[n-1]
	old[n-1] = nil
	h.index = -1
	*q = old[:n-1]
	return h
}

// Scheduler owns the simulation clock and the future-event list.
// The zero value is not usable; use NewScheduler.
type Scheduler struct {
	now     float64
	seq     uint64
	queue   eventQueue
	stopped bool
	fired   uint64 // events executed, for diagnostics
}

// NewScheduler returns a scheduler with the clock at zero.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now returns the current simulation time in seconds.
func (s *Scheduler) Now() float64 { return s.now }

// Len returns the number of pending events (including cancelled events not
// yet drained from the heap).
func (s *Scheduler) Len() int { return len(s.queue) }

// Fired returns the number of events executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// At schedules fn at absolute time t. Scheduling in the past panics: it is
// always a logic error in the calling substrate, and silently reordering
// time would invalidate an experiment.
func (s *Scheduler) At(t float64, fn Func) *Handle {
	if fn == nil {
		panic("event: At with nil func")
	}
	if t < s.now {
		panic(fmt.Sprintf("event: scheduling at %v before now %v", t, s.now))
	}
	h := new(Handle)
	s.schedule(h, t, fn)
	return h
}

// schedule queues h to run fn at t, taking the next sequence number.
func (s *Scheduler) schedule(h *Handle, t float64, fn Func) {
	h.time, h.seq, h.fn = t, s.seq, fn
	s.seq++
	heap.Push(&s.queue, h)
}

// After schedules fn d seconds from now. Negative d panics.
func (s *Scheduler) After(d float64, fn Func) *Handle {
	return s.At(s.now+d, fn)
}

// Every schedules fn at start and then every interval seconds until the
// scheduler stops or the returned stop function is called. interval must be
// positive. fn observes the tick time via its argument. Each tick queues
// the handle that just fired again, taking its sequence number after fn
// returns, as a fresh At would.
func (s *Scheduler) Every(start, interval float64, fn Func) (stop func()) {
	if interval <= 0 {
		panic("event: Every with non-positive interval")
	}
	stopped := false
	var h *Handle
	var tick Func
	tick = func(now float64) {
		if stopped {
			return
		}
		fn(now)
		if !stopped {
			s.schedule(h, now+interval, tick)
		}
	}
	h = s.At(start, tick)
	return func() { stopped = true }
}

// Step fires the single earliest pending event, advancing the clock to its
// time. It reports false if no events remain.
func (s *Scheduler) Step() bool {
	for len(s.queue) > 0 {
		h := heap.Pop(&s.queue).(*Handle)
		if h.fn == nil { // cancelled
			continue
		}
		s.now = h.time
		fn := h.fn
		h.fn = nil
		s.fired++
		fn(s.now)
		return true
	}
	return false
}

// RunUntil executes events in order until the clock would pass horizon or
// the event list drains or Stop is called. On return the clock is at
// min(horizon, last event time); if the horizon cut execution short, the
// clock is advanced to exactly horizon and the remaining events stay queued.
func (s *Scheduler) RunUntil(horizon float64) {
	s.RunUntilCheck(horizon, 0, nil)
}

// RunUntilCheck is RunUntil with a cooperative cancellation checkpoint:
// when check is non-nil it is consulted before the first event and then
// after every stride fired events (stride <= 0 means every event); a true
// return abandons execution between two events — never inside one — with
// the remaining events still queued and the clock at the last fired
// event's time. It reports whether check cut the run short. Because
// events fire in a deterministic total order, everything executed before
// the cut is a prefix of what an uninterrupted run would execute.
func (s *Scheduler) RunUntilCheck(horizon float64, stride uint64, check func() bool) bool {
	if horizon < s.now {
		panic(fmt.Sprintf("event: RunUntil(%v) before now %v", horizon, s.now))
	}
	if stride == 0 {
		stride = 1
	}
	if check != nil && check() {
		return true
	}
	s.stopped = false
	var fired uint64
	for !s.stopped {
		// Peek for the next live event.
		var next *Handle
		for len(s.queue) > 0 {
			top := s.queue[0]
			if top.fn == nil {
				heap.Pop(&s.queue)
				continue
			}
			next = top
			break
		}
		if next == nil || next.time > horizon {
			break
		}
		s.Step()
		fired++
		if check != nil && fired%stride == 0 && check() {
			return true
		}
	}
	if s.now < horizon {
		s.now = horizon
	}
	return false
}

// Run executes events until the list drains or Stop is called.
func (s *Scheduler) Run() {
	s.stopped = false
	for !s.stopped && s.Step() {
	}
}

// Stop makes the innermost Run/RunUntil return after the current event.
// It is intended to be called from inside an event body.
func (s *Scheduler) Stop() { s.stopped = true }
