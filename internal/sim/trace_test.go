package sim

import (
	"testing"

	"vdtn/internal/bundle"
	"vdtn/internal/reports"
	"vdtn/internal/trace"
)

// TestTraceConsistency runs a traced scenario and cross-checks the event
// stream, as a tracker counts it live, against the run's ledger and medium
// counters — the trace is only useful if it is exact.
func TestTraceConsistency(t *testing.T) {
	tracker := reports.NewTracker()
	var prev trace.Event
	n := 0
	first := make(map[bundle.ID]trace.Kind) // kind of the first event naming each message id
	c := quickConfig(33)
	c.Trace = func(ev trace.Event) {
		// Event stream must be time-ordered.
		if n > 0 && ev.Time < prev.Time {
			t.Fatalf("trace out of order at %d: %v after %v", n, ev, prev)
		}
		prev = ev
		n++
		tracker.Emit(ev)

		// Per-message sanity: every delivered message was created first.
		if _, ok := first[ev.Msg]; !ok {
			first[ev.Msg] = ev.Kind
		}
		if ev.Kind == trace.Delivered && first[ev.Msg] != trace.Created {
			t.Fatalf("message %v delivered without creation event", ev.Msg)
		}
	}
	w, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	r := w.Run()

	if n == 0 {
		t.Fatal("trace recorded nothing")
	}
	a := tracker.Analysis(c.Duration)

	// Counts must match the authoritative counters.
	checks := []struct {
		kind trace.Kind
		want int
		name string
	}{
		{trace.Created, r.Created, "created"},
		{trace.ContactUp, int(r.Contacts), "contacts"},
		{trace.TransferStart, int(r.TransfersStarted), "transfer starts"},
		{trace.TransferComplete, int(r.TransfersCompleted), "transfer completions"},
		{trace.TransferAbort, int(r.TransfersAborted), "transfer aborts"},
		{trace.Delivered, r.Delivered + r.DeliveredDuplicate, "deliveries"},
		{trace.RelayAccepted, r.RelayAccepted, "accepted relays"},
		{trace.RelayRejected, r.RelayRejected, "rejected relays"},
		{trace.Dropped, r.Dropped, "drops"},
		{trace.Expired, r.Expired, "expiries"},
	}
	for _, c := range checks {
		if got := a.Counts[c.kind]; got != c.want {
			t.Errorf("trace %s = %d, ledger says %d", c.name, got, c.want)
		}
	}

	// Contact lifecycle: downs never exceed ups.
	if a.Counts[trace.ContactDown] > a.Counts[trace.ContactUp] {
		t.Error("more contact downs than ups")
	}

	// The tracker agrees: every delivered message counts towards the
	// delivered fate, and none was delivered before its creation.
	if a.Fates[reports.FateDelivered] != a.Delivered {
		t.Fatalf("%d messages delivered, %d of them created", a.Delivered, a.Fates[reports.FateDelivered])
	}
	for _, d := range a.Delays() {
		if d < 0 {
			t.Fatalf("message delivered %v s before its creation", -d)
		}
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	// A nil Trace must not change results (the emission path is the same
	// simulation; this guards against tracing side effects).
	base := mustRun(t, quickConfig(35))
	var lg trace.Log
	c := quickConfig(35)
	c.Trace = lg.Append
	traced := mustRun(t, c)
	if base != traced {
		t.Fatalf("tracing changed the run:\n%+v\n%+v", base, traced)
	}
}
