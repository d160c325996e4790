package wireless

import (
	"fmt"
	"slices"
	"testing"

	"vdtn/internal/contactplan"
	"vdtn/internal/event"
	"vdtn/internal/geo"
	"vdtn/internal/units"
)

// testPlan validates windows into the plan StartPlan takes.
func testPlan(t testing.TB, windows []contactplan.Contact) *contactplan.Plan {
	t.Helper()
	p, err := contactplan.New(windows)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestStartPlanFiresWindows(t *testing.T) {
	s := event.NewScheduler()
	m := NewMedium(s, testCfg(), 2)
	rec := &recorder{}
	m.SetHandler(rec)
	m.StartPlan(testPlan(t, []contactplan.Contact{{A: 0, B: 1, Start: 10, End: 30}}))

	s.RunUntil(5)
	if m.Connected(0, 1) {
		t.Fatal("connected before the window")
	}
	s.RunUntil(10)
	if !m.Connected(0, 1) {
		t.Fatal("not connected inside the window")
	}
	s.RunUntil(31)
	if m.Connected(0, 1) {
		t.Fatal("still connected after the window")
	}
	if len(rec.ups) != 1 || len(rec.downs) != 1 {
		t.Fatalf("ups=%v downs=%v", rec.ups, rec.downs)
	}
	if m.ContactsSeen != 1 {
		t.Fatalf("ContactsSeen = %d", m.ContactsSeen)
	}
}

func TestStartPlanAbortsAtWindowEnd(t *testing.T) {
	s := event.NewScheduler()
	m := NewMedium(s, testCfg(), 2)
	m.SetHandler(&recorder{})
	m.StartPlan(testPlan(t, []contactplan.Contact{{A: 0, B: 1, Start: 0, End: 5}}))
	s.RunUntil(0.5)

	out := &outcomes{}
	m.SetTransferHandler(out)
	// 7.5 MB needs 10 s at 6 Mbit/s; the window closes at 5.
	if !m.StartTransfer(0, 1, units.MB(7.5)) {
		t.Fatal("transfer refused")
	}
	s.RunUntil(20)
	if want := []outcome{{0, 1, 5}}; !slices.Equal(out.aborted, want) {
		t.Fatal("transfer survived the window end")
	}
	if m.Busy(0) || m.Busy(1) {
		t.Fatal("busy after plan abort")
	}
}

func TestStartPlanUnknownNodePanics(t *testing.T) {
	s := event.NewScheduler()
	m := NewMedium(s, testCfg(), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown node accepted")
		}
	}()
	m.StartPlan(testPlan(t, []contactplan.Contact{{A: 0, B: 7, Start: 0, End: 1}}))
}

func TestStartAndStartPlanMutuallyExclusive(t *testing.T) {
	s := event.NewScheduler()
	m := NewMedium(s, testCfg(), 2)
	m.StartPlan(testPlan(t, []contactplan.Contact{{A: 0, B: 1, Start: 0, End: 1}}))
	defer func() {
		if recover() == nil {
			t.Fatal("Start after StartPlan accepted")
		}
	}()
	m.Start(0, []Entity{fixed(geo.Point{}), fixed(geo.Point{})})
}

// orderedLog records the full transition sequence, ups and downs
// interleaved, so tests can assert relative order within one instant.
type orderedLog struct {
	events []string
	onUp   func(now float64, a, b int)
}

func (l *orderedLog) ContactUp(now float64, a, b int) {
	l.events = append(l.events, fmt.Sprintf("up(%d,%d)@%v", a, b, now))
	if l.onUp != nil {
		l.onUp(now, a, b)
	}
}

func (l *orderedLog) ContactDown(now float64, a, b int) {
	l.events = append(l.events, fmt.Sprintf("down(%d,%d)@%v", a, b, now))
}

// TestStartPlanSameInstantDownsBeforeUps is the regression test for the
// plan-mode ordering bug: two adjacent windows share node 1, the second
// starting exactly when the first ends. The scan path has always fired
// downs before ups within one tick; plan mode used to schedule events in
// window-insertion order, so with the later window listed first the
// up(1,2) at t=20 fired while the (0,1) contact — and any transfer riding
// it — was still up, leaving node 1's radio busy at the moment the new
// contact appeared.
func TestStartPlanSameInstantDownsBeforeUps(t *testing.T) {
	s := event.NewScheduler()
	m := NewMedium(s, testCfg(), 3)
	log := &orderedLog{}
	m.SetHandler(log)

	out := &outcomes{}
	m.SetTransferHandler(out)
	started := false
	log.onUp = func(now float64, a, b int) {
		if a != 1 || b != 2 {
			return
		}
		// The down of (0,1) must already have fired: the old contact is
		// gone and node 1's radio is free to serve the new one.
		if m.Connected(0, 1) {
			t.Error("up(1,2) fired while (0,1) still connected")
		}
		if m.Busy(1) {
			t.Error("up(1,2) fired while node 1 still busy on the old contact")
		}
		started = m.StartTransfer(1, 2, units.MB(1))
	}

	// Adversarial order: the window that *opens* at t=20 is listed
	// before the window that *closes* at t=20.
	m.StartPlan(testPlan(t, []contactplan.Contact{
		{A: 1, B: 2, Start: 20, End: 30},
		{A: 0, B: 1, Start: 10, End: 20},
	}))

	s.RunUntil(10.5)
	// A transfer on (0,1) too large to finish by t=20: it must be aborted
	// by the window end before (1,2) rises.
	if !m.StartTransfer(0, 1, units.MB(100)) {
		t.Fatal("transfer on (0,1) refused")
	}
	s.RunUntil(40)

	if want := []outcome{{0, 1, 20}}; !slices.Equal(out.aborted, want) {
		t.Fatal("transfer on (0,1) survived its window end")
	}
	if !started {
		t.Fatal("transfer on (1,2) could not start inside the up handler")
	}
	want := []string{"up(0,1)@10", "down(0,1)@20", "up(1,2)@20", "down(1,2)@30"}
	if fmt.Sprint(log.events) != fmt.Sprint(want) {
		t.Fatalf("transition order %v, want %v", log.events, want)
	}
}

// TestStartPlanSameInstantDeterministicOrder: several transitions landing
// on one instant must fire downs-then-ups, each group ascending by pair —
// the same total order the scan path guarantees — although the plan lists
// its windows by start time, which interleaves ups and downs.
func TestStartPlanSameInstantDeterministicOrder(t *testing.T) {
	s := event.NewScheduler()
	m := NewMedium(s, testCfg(), 6)
	log := &orderedLog{}
	m.SetHandler(log)
	m.StartPlan(testPlan(t, []contactplan.Contact{
		{A: 4, B: 5, Start: 20, End: 40},
		{A: 2, B: 3, Start: 10, End: 20},
		{A: 1, B: 2, Start: 20, End: 40},
		{A: 0, B: 1, Start: 10, End: 20},
	}))
	s.RunUntil(50)
	want := []string{
		"up(0,1)@10", "up(2,3)@10",
		"down(0,1)@20", "down(2,3)@20", "up(1,2)@20", "up(4,5)@20",
		"down(1,2)@40", "down(4,5)@40",
	}
	if fmt.Sprint(log.events) != fmt.Sprint(want) {
		t.Fatalf("transition order:\n got %v\nwant %v", log.events, want)
	}
}

func TestStartPlanMultipleWindowsSamePair(t *testing.T) {
	s := event.NewScheduler()
	m := NewMedium(s, testCfg(), 2)
	rec := &recorder{}
	m.SetHandler(rec)
	m.StartPlan(testPlan(t, []contactplan.Contact{
		{A: 0, B: 1, Start: 10, End: 20},
		{A: 0, B: 1, Start: 40, End: 50},
	}))
	s.RunUntil(100)
	if len(rec.ups) != 2 || len(rec.downs) != 2 {
		t.Fatalf("repeat windows: ups=%d downs=%d", len(rec.ups), len(rec.downs))
	}
}
