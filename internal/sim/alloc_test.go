package sim

import (
	"runtime"
	"testing"

	"vdtn/internal/contactplan"
	"vdtn/internal/units"
)

// roundRobin returns k rounds of round-robin pairings of n nodes (n
// even), one round a minute: in round k, node i meets node (k-i) mod
// (n-1), and the node paired with itself meets node n-1. Node i's window
// in round k lasts length(k, i) seconds.
func roundRobin(n, rounds int, length func(k, i int) float64) []contactplan.Contact {
	var windows []contactplan.Contact
	for k := 0; k < rounds; k++ {
		r := k % (n - 1)
		for i := 0; i < n-1; i++ {
			j := ((r-i)%(n-1) + (n - 1)) % (n - 1)
			if j == i {
				j = n - 1
			}
			if i < j {
				start := float64(60 * k)
				windows = append(windows, contactplan.Contact{A: i, B: j, Start: start, End: start + length(k, i)})
			}
		}
	}
	return windows
}

// TestTransferAllocsPerCompletedTransfer pins the transfer path's
// allocation cost: a scripted Epidemic run on a contact plan, twelve
// nodes meeting pairwise in rotating one-minute windows, completes over a
// thousand transfers, and its Run allocates at most two objects per
// completed transfer. The one a transfer must allocate is the replica the
// receiver stores; everything else on the path — the transfer record,
// its scheduler entry, the Send and the visited set — is reused.
func TestTransferAllocsPerCompletedTransfer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's runtime allocates on its own")
	}
	const n = 12
	windows := roundRobin(n, 55, func(k, i int) float64 { return 59 })
	var script []ScriptedMessage
	for i := 0; i < 100; i++ {
		from := i % n
		to := (from + 1 + i%(n-1)) % n
		script = append(script, ScriptedMessage{Time: float64(10 * i), From: from, To: to, Size: units.KB(100)})
	}
	c := planConfig(t, n, windows, script)
	w, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := w.Run()
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	if r.TransfersCompleted < 1000 {
		t.Fatalf("only %d transfers completed; the scenario must exercise at least 1000", r.TransfersCompleted)
	}
	per := float64(allocs) / float64(r.TransfersCompleted)
	t.Logf("%d allocations over %d completed transfers (%.2f each; %d created, %d delivered)",
		allocs, r.TransfersCompleted, per, r.Created, r.Delivered)
	if per > 2 {
		t.Fatalf("%.2f allocations per completed transfer, want at most 2", per)
	}
}

// TestGeneratorAllocsPerCreatedMessage pins the traffic generator's
// allocation cost: a plan-mode run with one brief contact generates
// thousands of small messages, and its Run allocates at most 1.5 objects
// per created message. The one a message must allocate is the message
// itself; the generator's chain of creation events reuses one scheduler
// handle and one bound event function.
func TestGeneratorAllocsPerCreatedMessage(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's runtime allocates on its own")
	}
	c := planConfig(t, 12, []contactplan.Contact{{A: 0, B: 1, Start: 10, End: 11}}, nil)
	c.MsgIntervalLo, c.MsgIntervalHi = 1, 2
	c.MsgSizeLo, c.MsgSizeHi = units.KB(1), units.KB(2)
	w, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := w.Run()
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	if r.Created < 1500 {
		t.Fatalf("only %d messages created; the scenario must generate at least 1500", r.Created)
	}
	per := float64(allocs) / float64(r.Created)
	t.Logf("%d allocations over %d created messages (%.2f each)", allocs, r.Created, per)
	if per > 1.5 {
		t.Fatalf("%.2f allocations per created message, want at most 1.5", per)
	}
}
