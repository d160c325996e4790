package sim

import (
	"runtime"
	"testing"

	"vdtn/internal/contactplan"
	"vdtn/internal/units"
)

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
	var windows []contactplan.Contact
	// Round-robin pairings, five times over: in round r, node i meets
	// node (r-i) mod 11, and the node paired with itself meets node 11.
	for k := 0; k < 55; k++ {
		r := k % (n - 1)
		for i := 0; i < n-1; i++ {
			j := ((r-i)%(n-1) + (n - 1)) % (n - 1)
			if j == i {
				j = n - 1
			}
			if i < j {
				start := float64(60 * k)
				windows = append(windows, contactplan.Contact{A: i, B: j, Start: start, End: start + 59})
			}
		}
	}
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
