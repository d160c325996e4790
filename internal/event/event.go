// Package event implements the discrete-event core of the simulator: a
// simulation clock and a future-event list with deterministic total order.
//
// Events are callbacks scheduled at absolute simulation times. Two events
// scheduled for the same instant fire in scheduling order (a monotonically
// increasing sequence number breaks ties), so a simulation run is a pure
// function of its inputs — the property every experiment in this repository
// leans on. Handles returned by the scheduling calls support cancellation,
// which the wireless substrate uses to abort in-flight transfers when a
// contact breaks. A cancel takes the event off the list at once, and a
// handle that has fired or been cancelled can be queued again with
// Scheduler.Schedule, so a substrate that reuses its handles schedules
// without allocating.
package event

import "fmt"

// Func is an event body. It runs with the clock set to the event's time.
type Func func(now float64)

// Handle identifies a scheduled event and allows cancelling it. The zero
// Handle is not queued and may be passed to Scheduler.Schedule; so may one
// whose event has fired or been cancelled. A nil *Handle is inert: Cancel
// and Scheduled are no-ops.
type Handle struct {
	time  float64
	seq   uint64
	pos   int // heap index + 1; 0 while not queued
	fn    Func
	sched *Scheduler
}

// Cancel removes the event from the schedule. Cancelling an event that has
// already fired or been cancelled is a no-op. Cancel reports whether the
// event was actually descheduled by this call.
func (h *Handle) Cancel() bool {
	if h == nil || h.pos == 0 {
		return false
	}
	h.sched.queue.remove(h.pos - 1)
	h.fn = nil // break reference cycles promptly
	return true
}

// Scheduled reports whether the event is still pending.
func (h *Handle) Scheduled() bool { return h != nil && h.pos != 0 }

// Time returns the simulation time the event fires at.
func (h *Handle) Time() float64 { return h.time }

// eventQueue is a binary min-heap over (time, seq), a total order, so
// the order events leave it in does not depend on its layout. Each
// handle's pos tracks its slot.
type eventQueue []*Handle

func before(a, b *Handle) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

func (q eventQueue) swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].pos = i + 1
	q[j].pos = j + 1
}

// up sifts entry j towards the root.
func (q eventQueue) up(j int) {
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !before(q[j], q[i]) {
			break
		}
		q.swap(i, j)
		j = i
	}
}

// down sifts entry i towards the leaves of q[:n]. It reports whether
// the entry moved.
func (q eventQueue) down(i, n int) bool {
	i0 := i
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && before(q[j2], q[j]) {
			j = j2
		}
		if !before(q[j], q[i]) {
			break
		}
		q.swap(i, j)
		i = j
	}
	return i > i0
}

func (q *eventQueue) push(h *Handle) {
	*q = append(*q, h)
	h.pos = len(*q)
	q.up(len(*q) - 1)
}

// pop removes and returns the earliest entry. q must not be empty.
func (q *eventQueue) pop() *Handle { return q.remove(0) }

// remove takes entry i off the heap and returns it, marked not queued.
func (q *eventQueue) remove(i int) *Handle {
	h := *q
	n := len(h) - 1
	if i != n {
		h.swap(i, n)
		if !h.down(i, n) {
			h.up(i)
		}
	}
	e := h[n]
	h[n] = nil
	e.pos = 0
	*q = h[:n]
	return e
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

// Len returns the number of pending events. Cancelled events are not
// counted: Cancel takes them off the list.
func (s *Scheduler) Len() int { return len(s.queue) }

// Fired returns the number of events executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// At schedules fn at absolute time t. Scheduling in the past panics: it is
// always a logic error in the calling substrate, and silently reordering
// time would invalidate an experiment.
func (s *Scheduler) At(t float64, fn Func) *Handle {
	h := new(Handle)
	s.Schedule(h, t, fn)
	return h
}

// Schedule queues h to run fn at absolute time t, as At would, without
// allocating: h is the caller's, and may be a zero Handle or one whose
// event has fired or been cancelled. Scheduling a handle that is still
// queued panics, as do a nil fn and a time in the past.
func (s *Scheduler) Schedule(h *Handle, t float64, fn Func) {
	if fn == nil {
		panic("event: scheduling a nil func")
	}
	if t < s.now {
		panic(fmt.Sprintf("event: scheduling at %v before now %v", t, s.now))
	}
	s.schedule(h, t, fn)
}

// schedule queues h to run fn at t, taking the next sequence number.
func (s *Scheduler) schedule(h *Handle, t float64, fn Func) {
	if h.pos != 0 {
		panic("event: scheduling a handle that is still queued")
	}
	h.time, h.seq, h.fn, h.sched = t, s.seq, fn, s
	s.seq++
	s.queue.push(h)
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
	if len(s.queue) == 0 {
		return false
	}
	h := s.queue.pop()
	s.now = h.time
	fn := h.fn
	h.fn = nil
	s.fired++
	fn(s.now)
	return true
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
		if len(s.queue) == 0 || s.queue[0].time > horizon {
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
