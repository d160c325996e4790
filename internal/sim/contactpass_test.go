package sim

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"vdtn/internal/core"
	"vdtn/internal/roadmap"
	"vdtn/internal/routing"
	"vdtn/internal/trace"
	"vdtn/internal/units"
	"vdtn/internal/xrand"
)

// waitGoroutines polls until no more than want goroutines run: the
// contact pass's goroutine must be gone once RunContext has returned or
// panicked. An exited goroutine can take a moment to leave the count, so
// the poll allows a few seconds before it fails.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, want at most %d: the contact pass outlived its run", runtime.NumGoroutine(), want)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// passConfig is a dense scenario whose contact pass streams about twice
// the bytes a ContactStream's pool holds, so the pass runs ahead of the
// event loop until the pool is full and then waits on it: a run that
// stops early leaves the pass waiting unless the run stops it.
func passConfig() Config {
	c := cancelConfig()
	c.Map = roadmap.Grid(3, 3, 200)
	c.Vehicles = 50
	c.Duration = units.Minutes(60)
	return c
}

// runLogged runs cfg live with a trace log attached.
func runLogged(t *testing.T, ctx context.Context, cfg Config) (Result, []trace.Event, error) {
	t.Helper()
	var lg trace.Log
	cfg.Trace = lg.Append
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.RunContext(ctx)
	return res, lg.Events(), err
}

// TestContactPassJoinedAfterRun: a live run, whose contact pass streams
// from its own goroutine, equals a replay of the pass RecordContacts
// records, Result and full trace, and leaves no goroutine behind.
func TestContactPassJoinedAfterRun(t *testing.T) {
	start := runtime.NumGoroutine()
	cfg := passConfig()
	liveRes, liveEvents, err := runLogged(t, context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, start)

	rec, err := RecordContacts(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ReplaySource = openViewOf(t, rec)
	repRes, repEvents, err := runLogged(t, context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if liveRes != repRes {
		t.Fatalf("live run differs from the replay of its recording:\nlive:   %+v\nreplay: %+v", liveRes, repRes)
	}
	if !reflect.DeepEqual(liveEvents, repEvents) {
		t.Fatal("live trace differs from the replay of its recording")
	}
}

// holdBeforeCut is how long a test's event loop stalls before a router
// panic cuts its run: long enough for the contact pass to fill its pool
// and wait on it, so the cut must release a waiting pass, not one that
// still runs.
const holdBeforeCut = 20 * time.Millisecond

// returnsWithin runs fn on a goroutine of its own and fails the test if
// fn has not returned within ten seconds: a run whose contact pass was
// never stopped waits in its join for good.
func returnsWithin(t *testing.T, fn func()) {
	t.Helper()
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		fn()
	}()
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("RunContext did not return: it waits on a contact pass that was never stopped")
	}
}

// TestContactPassJoinedAfterCancel: a run cancelled mid-flight stops its
// contact pass before RunContext returns, and what it emitted is a prefix
// of the full run's trace: the cut reaches the event loop, never the
// stream of transitions the loop reads.
func TestContactPassJoinedAfterCancel(t *testing.T) {
	_, ref, err := runLogged(t, context.Background(), passConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, cutAfter := range []int{777, len(ref) / 2} {
		start := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		var got trace.Log
		cfg := passConfig()
		cfg.Trace = func(ev trace.Event) {
			got.Append(ev)
			if got.Len() == cutAfter {
				cancel()
			}
			if got.Len() >= cutAfter {
				// Crawl from the cut to the checkpoint that notices it,
				// so the pass fills its pool and waits on it before the
				// event loop stops.
				time.Sleep(200 * time.Microsecond)
			}
		}
		w, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		returnsWithin(t, func() { _, err = w.RunContext(ctx) })
		if err != context.Canceled {
			t.Fatalf("cut after %d: err = %v, want context.Canceled", cutAfter, err)
		}
		cancel()
		waitGoroutines(t, start)
		events := got.Events()
		if len(events) < cutAfter || len(events) >= len(ref) {
			t.Fatalf("cut after %d: %d events emitted (full run %d)", cutAfter, len(events), len(ref))
		}
		if !reflect.DeepEqual(events, ref[:len(events)]) {
			t.Fatalf("cut after %d: cancelled trace is not a prefix of the full run's", cutAfter)
		}
	}
}

// panicAfter is an Epidemic router whose node panics on the nth ContactUp
// the whole world delivers.
type panicAfter struct {
	routing.Router
	left *int
}

// errRouterPanic is the value a panicAfter router panics with.
const errRouterPanic = "router panic on the caller's goroutine"

func (p panicAfter) ContactUp(now float64, peer routing.Peer) {
	if *p.left--; *p.left == 0 {
		time.Sleep(holdBeforeCut)
		panic(errRouterPanic)
	}
	p.Router.ContactUp(now, peer)
}

// TestContactPassJoinedAfterRouterPanic: a router that panics on the
// event loop's goroutine unwinds RunContext with its own panic value, and
// the contact pass is stopped and joined on the way out.
func TestContactPassJoinedAfterRouterPanic(t *testing.T) {
	for _, n := range []int{1, 40} {
		start := runtime.NumGoroutine()
		left := n
		cfg := passConfig()
		cfg.NewRouter = func(int, *xrand.Rand) routing.Router {
			return panicAfter{Router: routing.NewEpidemic(core.FIFOFIFO()), left: &left}
		}
		w, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var got any
		returnsWithin(t, func() {
			defer func() { got = recover() }()
			w.Run()
		})
		if got != errRouterPanic {
			t.Fatalf("panic after %d ContactUps: recovered %v, want %q", n, got, errRouterPanic)
		}
		waitGoroutines(t, start)
	}
}

// TestContactPassAtOneProc: with a single P the pass and the event loop
// take turns instead of overlapping, and the run is the same, Result and
// full trace, as at the default GOMAXPROCS.
func TestContactPassAtOneProc(t *testing.T) {
	cfg := passConfig()
	wantRes, wantEvents, err := runLogged(t, context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	res, events, err := runLogged(t, context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res != wantRes {
		t.Fatalf("GOMAXPROCS=1 run differs:\ngot:  %+v\nwant: %+v", res, wantRes)
	}
	if !reflect.DeepEqual(events, wantEvents) {
		t.Fatal("GOMAXPROCS=1 trace differs from the default run's")
	}
}

// TestContactPassInvariantsAfterEveryEvent audits the scan where it runs:
// over the paper scenario, whose fleet is sparse enough for drifting
// sleep, the contact pass's medium (its adjacency lists, grids and
// sleepers) passes CheckInvariants after every event, and the checked
// pass fires exactly the transitions RecordContacts records.
func TestContactPassInvariantsAfterEveryEvent(t *testing.T) {
	for _, seed := range []uint64{1001, 1002} {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.Duration = units.Hours(1)
		want, err := RecordContacts(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Transitions) == 0 {
			t.Fatalf("seed %d: no contact transitions: nothing checked", seed)
		}
		graph, err := scenarioMap(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pass := newContactPass(cfg, graph)
		pass.medium.StartRecording()
		pass.medium.Start(0, pass.mobs)
		err = runUntil(context.Background(), pass.sched, pass.horizon, func() {
			if err := pass.medium.CheckInvariants(); err != nil {
				t.Fatalf("seed %d at t=%v: %v", seed, pass.sched.Now(), err)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := pass.medium.TakeRecording(cfg.Duration); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: the checked pass fired %d transitions, RecordContacts %d, or others",
				seed, len(got.Transitions), len(want.Transitions))
		}
	}
}
