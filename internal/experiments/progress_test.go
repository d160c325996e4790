package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// tickClock is an injected clock advancing a fixed step per reading, so
// progress lines render deterministically.
func tickClock(step time.Duration) func() time.Time {
	base := time.Unix(0, 0)
	n := 0
	return func() time.Time {
		t := base.Add(time.Duration(n) * step)
		n++
		return t
	}
}

func TestProgressObserverLiveLine(t *testing.T) {
	var sb strings.Builder
	p := &ProgressObserver{W: &sb, Now: tickClock(time.Second)}
	exp := Experiment{ID: "tiny"}
	p.SweepStarted(exp, Options{}, 4)
	for i := 0; i < 4; i++ {
		p.CellFinished(CellID{Index: i, Total: 4}, time.Second, nil)
	}
	p.SweepFinished(exp, 10*time.Second, nil)
	out := sb.String()

	// Every redraw starts with \r and stays on one line until the final
	// newline-terminated summary.
	if n := strings.Count(out, "\n"); n != 1 {
		t.Fatalf("got %d newlines, want exactly 1 (the final summary):\n%q", n, out)
	}
	frames := strings.Split(out, "\r")
	for _, want := range []string{
		"tiny: 0/4 cells (0%)",
		"tiny: 1/4 cells (25%)",
		"tiny: 4/4 cells (100%)",
		"tiny: done — 4/4 cells in 10s",
	} {
		found := false
		for _, f := range frames {
			if strings.HasPrefix(f, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no frame starts with %q:\n%q", want, out)
		}
	}
	// With the 1s-per-reading clock, after cell 1 one cell took ~2
	// elapsed readings; ETA must appear once a measured cell exists.
	if !strings.Contains(out, " eta ") {
		t.Errorf("no ETA rendered:\n%q", out)
	}
}

func TestProgressObserverResumedExcludedFromETA(t *testing.T) {
	var sb strings.Builder
	p := &ProgressObserver{W: &sb, Resumed: 3, Now: tickClock(time.Second)}
	p.SweepStarted(Experiment{ID: "tiny"}, Options{}, 6)
	first := sb.String()
	// Resumed cells count as done immediately...
	if !strings.Contains(first, "3/6 cells (50%)") {
		t.Fatalf("initial frame does not show resumed cells done:\n%q", first)
	}
	// ...but produce no ETA: nothing has been measured yet.
	if strings.Contains(first, " eta ") {
		t.Fatalf("ETA rendered before any measured cell:\n%q", first)
	}
	if !strings.Contains(first, "(3 resumed)") {
		t.Fatalf("resumed note missing:\n%q", first)
	}
	p.CellFinished(CellID{Index: 3, Total: 6}, time.Second, nil)
	if out := sb.String(); !strings.Contains(out, " eta ") {
		t.Fatalf("no ETA after first measured cell:\n%q", out)
	}
}

func TestProgressObserverFailuresAndCancellation(t *testing.T) {
	var sb strings.Builder
	p := &ProgressObserver{W: &sb, Now: tickClock(time.Second)}
	exp := Experiment{ID: "tiny"}
	p.SweepStarted(exp, Options{}, 2)
	p.CellFinished(CellID{Index: 0, Total: 2}, time.Second, errors.New("boom"))
	out := sb.String()
	if !strings.Contains(out, "tiny: cell 1/2 FAILED: boom\n") {
		t.Fatalf("failure not printed on its own line:\n%q", out)
	}
	if !strings.Contains(out, "failed 1") {
		t.Fatalf("failed counter missing:\n%q", out)
	}

	// Cancelled cells are the sweep's outcome, not per-cell noise.
	sb.Reset()
	p = &ProgressObserver{W: &sb, Now: tickClock(time.Second)}
	p.SweepStarted(exp, Options{}, 2)
	p.CellFinished(CellID{Index: 0, Total: 2}, time.Second, context.Canceled)
	if out := sb.String(); strings.Contains(out, "FAILED") {
		t.Fatalf("cancellation printed as a failure:\n%q", out)
	}
	p.SweepFinished(exp, 3*time.Second, context.Canceled)
	if out := sb.String(); !strings.Contains(out, "interrupted") {
		t.Fatalf("cancelled sweep summary missing:\n%q", out)
	}
}

// TestProgressObserverThroughRunner drives a real sweep through the
// observer, checking it never trips on the serialized callback stream
// and ends with the newline-terminated summary.
func TestProgressObserverThroughRunner(t *testing.T) {
	var sb strings.Builder
	exp := tinyExperiment()
	r := Runner{
		Options:  Options{Seeds: []uint64{1}},
		Observer: &ProgressObserver{W: &sb},
	}
	if err := r.Run(context.Background(), exp); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasSuffix(out, "\n") {
		t.Fatalf("output does not end with the summary newline:\n%q", out)
	}
	if !strings.Contains(out, "tiny: done — ") {
		t.Fatalf("summary missing:\n%q", out)
	}
}
