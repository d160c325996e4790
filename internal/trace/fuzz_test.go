package trace_test

import (
	"strings"
	"testing"

	"vdtn/internal/reports"
	"vdtn/internal/roadmap"
	"vdtn/internal/sim"
	"vdtn/internal/trace"
	"vdtn/internal/units"
)

// shortRunTSV returns the TSV trace of a small 8-minute simulation run.
func shortRunTSV(tb testing.TB) string {
	tb.Helper()
	c := sim.DefaultConfig()
	c.Duration = units.Minutes(8)
	c.Map = roadmap.Grid(3, 3, 100)
	c.Vehicles = 4
	c.Relays = 1
	var sb strings.Builder
	w := trace.NewWriter(&sb)
	c.Trace = w.Emit
	world, err := sim.New(c)
	if err != nil {
		tb.Fatal(err)
	}
	world.Run()
	if err := w.Err(); err != nil {
		tb.Fatal(err)
	}
	return sb.String()
}

// roundTrip decodes text with ReadTSV and re-encodes the events through
// Writer.
func roundTrip(text string) ([]trace.Event, string, error) {
	var lg trace.Log
	if err := trace.ReadTSV(strings.NewReader(text), lg.Append); err != nil {
		return nil, "", err
	}
	var sb strings.Builder
	w := trace.NewWriter(&sb)
	for _, ev := range lg.Events() {
		w.Emit(ev)
	}
	return lg.Events(), sb.String(), w.Err()
}

// FuzzReadTSV checks the TSV boundary: ReadTSV never panics, whatever it
// accepts re-encodes through Writer to a fixed point (the first pass may
// round times to milliseconds, a second pass changes nothing), and a
// Tracker fed the accepted events reports on them without panicking.
func FuzzReadTSV(f *testing.F) {
	for _, c := range trace.TSVErrorCases {
		f.Add(c.Text)
	}
	f.Add(shortRunTSV(f))
	f.Add("time\tkind\ta\tb\tmsg\n0.0004\tcontact_up\t+1\t2\t5\n0.0006\tcreated\t1\t2\tM-3\n")
	f.Fuzz(func(t *testing.T, text string) {
		events, once, err := roundTrip(text)
		if err != nil {
			return
		}
		_, twice, err := roundTrip(once)
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v\n%s", err, once)
		}
		if twice != once {
			t.Fatalf("re-encoding is not a fixed point:\nonce:\n%s\ntwice:\n%s", once, twice)
		}

		tracker := reports.NewTracker()
		horizon := 0.0
		for _, ev := range events {
			tracker.Emit(ev)
			horizon = ev.Time
		}
		a := tracker.Analysis(horizon)
		_ = a.String()
		_ = a.TopPairs(3)
		for _, id := range a.DeliveredIDs() {
			_ = a.DeliveryPath(id)
		}
	})
}
