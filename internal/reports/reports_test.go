package reports

import (
	"math"
	"strings"
	"testing"

	"vdtn/internal/bundle"
	"vdtn/internal/stats"
	"vdtn/internal/trace"
)

// analyze feeds recorded events, in emission order, through a Tracker and
// reports at horizon.
func analyze(events []trace.Event, horizon float64) *Analysis {
	t := NewTracker()
	for _, ev := range events {
		t.Emit(ev)
	}
	return t.Analysis(horizon)
}

// ev builds an event tersely.
func ev(t float64, k trace.Kind, a, b int, msg int64) trace.Event {
	return trace.Event{Time: t, Kind: k, A: a, B: b, Msg: bundle.ID(msg)}
}

func TestContactDurations(t *testing.T) {
	events := []trace.Event{
		ev(10, trace.ContactUp, 1, 2, 0),
		ev(40, trace.ContactDown, 1, 2, 0), // 30 s
		ev(100, trace.ContactUp, 1, 2, 0),
		ev(150, trace.ContactDown, 1, 2, 0), // 50 s, gap 60 s
		ev(900, trace.ContactUp, 3, 4, 0),   // open at horizon: 100 s
	}
	a := analyze(events, 1000)
	if a.Counts[trace.ContactUp] != 3 {
		t.Fatalf("contacts = %d", a.Counts[trace.ContactUp])
	}
	if a.ContactDuration.N != 3 {
		t.Fatalf("durations N = %d", a.ContactDuration.N)
	}
	if got := a.ContactDuration.Mean; math.Abs(got-60) > 1e-9 {
		t.Fatalf("mean duration = %v, want 60", got)
	}
	if got := a.MedianContactDuration(); got != 50 {
		t.Fatalf("median duration = %v, want 50", got)
	}
	if a.InterContact.N != 1 || a.InterContact.Mean != 60 {
		t.Fatalf("inter-contact = %+v, want single 60s gap", a.InterContact)
	}
	if got := a.MedianInterContact(); got != 60 {
		t.Fatalf("median gap = %v", got)
	}
}

func TestNoContactsNoPanic(t *testing.T) {
	a := analyze(nil, 100)
	if a.Counts != [trace.NumKinds]int{} || a.Created != 0 {
		t.Fatalf("empty analysis = %+v", a)
	}
	if a.MedianContactDuration() != 0 || a.MedianInterContact() != 0 {
		t.Fatal("medians of empty analysis not 0")
	}
	_ = a.String() // must not panic
}

func TestTransferCounts(t *testing.T) {
	events := []trace.Event{
		ev(1, trace.TransferStart, 0, 1, 1),
		ev(2, trace.TransferComplete, 0, 1, 1),
		ev(3, trace.TransferStart, 0, 1, 2),
		ev(4, trace.TransferAbort, 0, 1, 2),
	}
	a := analyze(events, 10)
	if a.Counts[trace.TransferStart] != 2 || a.Counts[trace.TransferComplete] != 1 || a.Counts[trace.TransferAbort] != 1 {
		t.Fatalf("transfer counts: %+v", a)
	}
}

func TestMessageFates(t *testing.T) {
	events := []trace.Event{
		// M1: created at node 0, relayed to 1, delivered to 2.
		ev(1, trace.Created, 0, 2, 1),
		ev(5, trace.TransferComplete, 0, 1, 1),
		ev(5, trace.RelayAccepted, 0, 1, 1),
		ev(9, trace.TransferComplete, 1, 2, 1),
		ev(9, trace.Delivered, 1, 2, 1),
		// M2: created, replica expired -> dead.
		ev(2, trace.Created, 3, 4, 2),
		ev(50, trace.Expired, 3, -1, 2),
		// M3: created, still sitting in a buffer -> pending.
		ev(3, trace.Created, 5, 6, 3),
	}
	a := analyze(events, 100)
	if a.Created != 3 || a.Delivered != 1 {
		t.Fatalf("created %d delivered %d", a.Created, a.Delivered)
	}
	if a.Fates[FateDelivered] != 1 || a.Fates[FateDead] != 1 || a.Fates[FatePending] != 1 {
		t.Fatalf("fates = %v", a.Fates)
	}
}

func TestDeliveryPathReconstruction(t *testing.T) {
	// M1 travels 0 -> 3 -> 7 -> 9 (dest), with a decoy replica 0 -> 4.
	events := []trace.Event{
		ev(1, trace.Created, 0, 9, 1),
		ev(10, trace.TransferComplete, 0, 4, 1),
		ev(10, trace.RelayAccepted, 0, 4, 1),
		ev(12, trace.TransferComplete, 0, 3, 1),
		ev(12, trace.RelayAccepted, 0, 3, 1),
		ev(20, trace.TransferComplete, 3, 7, 1),
		ev(20, trace.RelayAccepted, 3, 7, 1),
		ev(30, trace.TransferComplete, 7, 9, 1),
		ev(30, trace.Delivered, 7, 9, 1),
	}
	a := analyze(events, 100)
	path := a.DeliveryPath(1)
	want := []int{0, 3, 7, 9}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	if a.PathHops.Mean != 3 {
		t.Fatalf("PathHops.Mean = %v, want 3", a.PathHops.Mean)
	}
	if a.DeliveryPath(99) != nil {
		t.Fatal("path for unknown message not nil")
	}
}

func TestDirectDeliveryPath(t *testing.T) {
	// Source meets destination directly: path is [src, dst].
	events := []trace.Event{
		ev(1, trace.Created, 5, 8, 1),
		ev(30, trace.TransferComplete, 5, 8, 1),
		ev(30, trace.Delivered, 5, 8, 1),
	}
	a := analyze(events, 100)
	path := a.DeliveryPath(1)
	if len(path) != 2 || path[0] != 5 || path[1] != 8 {
		t.Fatalf("direct path = %v, want [5 8]", path)
	}
}

func TestTopPairs(t *testing.T) {
	events := []trace.Event{
		ev(1, trace.ContactUp, 1, 2, 0),
		ev(2, trace.ContactUp, 3, 4, 0),
		ev(3, trace.ContactDown, 1, 2, 0),
		ev(4, trace.ContactUp, 1, 2, 0),
		ev(5, trace.ContactUp, 5, 6, 0),
		ev(6, trace.ContactDown, 7, 8, 0), // never up: not a busy pair
	}
	a := analyze(events, 10)
	top := a.TopPairs(2)
	if len(top) != 2 {
		t.Fatalf("TopPairs = %v", top)
	}
	if top[0] != [2]int{1, 2} || top[1] != [2]int{3, 4} {
		t.Fatalf("busiest pairs = %v, want [[1 2] [3 4]] (ties in pair order)", top)
	}
	all := a.TopPairs(10)
	if len(all) != 3 {
		t.Fatalf("TopPairs(10) = %v", all)
	}
	all[0] = [2]int{9, 9}
	if a.TopPairs(1)[0] != [2]int{1, 2} {
		t.Fatal("TopPairs aliases the analysis")
	}
}

// TestOpenContactsCloseInPairOrder: contacts still up at the horizon are
// closed in pair order, so the order-dependent duration mean and std are
// the same bits on every call, whatever the map iteration order.
func TestOpenContactsCloseInPairOrder(t *testing.T) {
	const horizon = 1000.0
	var events []trace.Event
	var want []float64
	for i := range 40 {
		up := 0.1 * float64(i+1)
		events = append(events, ev(up, trace.ContactUp, 39-i, 40+i, 0))
	}
	// Pair order is ascending in the first node: the last contact up
	// closes first.
	for i := 39; i >= 0; i-- {
		want = append(want, horizon-0.1*float64(i+1))
	}
	wantSum := stats.Summarize(want)
	for range 200 {
		got := analyze(events, horizon).ContactDuration
		if math.Float64bits(got.Mean) != math.Float64bits(wantSum.Mean) ||
			math.Float64bits(got.Std) != math.Float64bits(wantSum.Std) {
			t.Fatalf("ContactDuration = %+v, want %+v (closed in pair order)", got, wantSum)
		}
	}
}

func TestStringRendering(t *testing.T) {
	events := []trace.Event{
		ev(1, trace.ContactUp, 1, 2, 0),
		ev(31, trace.ContactDown, 1, 2, 0),
		ev(2, trace.Created, 0, 2, 1),
		ev(20, trace.TransferComplete, 0, 2, 1),
		ev(20, trace.Delivered, 0, 2, 1),
	}
	s := analyze(events, 100).String()
	for _, want := range []string{"contacts", "transfers", "messages", "delivery paths"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}
}

func TestFateString(t *testing.T) {
	if FateDelivered.String() != "delivered" || FatePending.String() != "pending" ||
		FateDead.String() != "dead" {
		t.Fatal("fate names wrong")
	}
	if !strings.Contains(Fate(9).String(), "Fate(9)") {
		t.Fatal("unknown fate rendering")
	}
}
