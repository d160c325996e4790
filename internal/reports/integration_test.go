package reports

import (
	"reflect"
	"testing"

	"vdtn/internal/roadmap"
	"vdtn/internal/sim"
	"vdtn/internal/trace"
	"vdtn/internal/units"
)

// TestAnalyzeRealRun cross-checks a tracker fed live by a real simulation
// run against the run's authoritative counters, and against a second
// tracker replaying the recorded events.
func TestAnalyzeRealRun(t *testing.T) {
	var lg trace.Log
	tracker := NewTracker()
	c := sim.DefaultConfig()
	c.Seed = 5
	c.Duration = units.Hours(2)
	c.Map = roadmap.Grid(6, 6, 300)
	c.Vehicles = 12
	c.Relays = 2
	c.VehicleBuffer = units.MB(20)
	c.RelayBuffer = units.MB(50)
	c.TTL = units.Minutes(45)
	c.Trace = func(ev trace.Event) {
		lg.Append(ev)
		tracker.Emit(ev)
	}

	w, err := sim.New(c)
	if err != nil {
		t.Fatal(err)
	}
	r := w.Run()

	a := tracker.Analysis(c.Duration)
	if batch := analyze(lg.Events(), c.Duration); !reflect.DeepEqual(a, batch) {
		t.Fatalf("live analysis differs from the batch one:\n%+v\n%+v", a, batch)
	}

	// Per-kind counts equal the run's ledger and medium counters.
	for kind, want := range map[trace.Kind]int{
		trace.ContactUp:        int(r.Contacts),
		trace.TransferStart:    int(r.TransfersStarted),
		trace.TransferComplete: int(r.TransfersCompleted),
		trace.TransferAbort:    int(r.TransfersAborted),
		trace.Created:          r.Created,
		trace.Delivered:        r.Delivered + r.DeliveredDuplicate,
		trace.RelayAccepted:    r.RelayAccepted,
		trace.RelayRejected:    r.RelayRejected,
		trace.Dropped:          r.Dropped,
		trace.Expired:          r.Expired,
	} {
		if got := a.Counts[kind]; got != want {
			t.Errorf("tracker %v count %d != run %d", kind, got, want)
		}
	}
	if a.Created != r.Created {
		t.Fatalf("analysis created %d != run %d", a.Created, r.Created)
	}
	if a.Delivered != r.Delivered {
		t.Fatalf("analysis delivered %d != run %d", a.Delivered, r.Delivered)
	}
	// Fates partition the created messages.
	total := a.Fates[FateDelivered] + a.Fates[FatePending] + a.Fates[FateDead]
	if total != a.Created {
		t.Fatalf("fates sum to %d, created %d", total, a.Created)
	}
	// Every delivered message reconstructs to a path that starts at a
	// vehicle and ends at its destination with >= 1 hop.
	if a.PathHops.Min < 1 {
		t.Fatalf("reconstructed path with %v hops", a.PathHops.Min)
	}
	// Contact durations are positive and bounded by the run horizon.
	if a.ContactDuration.Min < 0 || a.ContactDuration.Max > c.Duration {
		t.Fatalf("contact durations out of range: %+v", a.ContactDuration)
	}
	if len(a.TopPairs(3)) == 0 {
		t.Fatal("no busy pairs in a 2h run")
	}
}
