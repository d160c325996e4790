package wireless

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"vdtn/internal/contactplan"
	"vdtn/internal/event"
	"vdtn/internal/geo"
)

// mover returns an entity oscillating on the x axis so contacts with a
// fixed origin entity repeatedly form and break.
func mover(id int, period float64) *scripted {
	return &scripted{fn: func(now float64) geo.Point {
		return geo.Point{X: 50 + 40*math.Sin(2*math.Pi*now/period), Y: float64(10 * id)}
	}}
}

// liveRecording runs a scan-driven medium over the given entities and
// returns the captured trace plus the handler's observed contact events.
func liveRecording(t *testing.T, entities []Entity, horizon float64) (*Recording, *recorder) {
	t.Helper()
	s := event.NewScheduler()
	m := NewMedium(s, testCfg(), len(entities))
	h := &recorder{}
	m.SetHandler(h)
	m.StartRecording()
	m.Start(0, entities)
	s.RunUntil(horizon)
	return m.TakeRecording(horizon), h
}

func crossingEntities() []Entity {
	return []Entity{
		fixed(geo.Point{X: 60, Y: 0}),
		mover(1, 60),
		mover(2, 45),
		fixed(geo.Point{X: 500, Y: 500}), // never in range
	}
}

func TestRecordingCapturesScanTransitions(t *testing.T) {
	rec, h := liveRecording(t, crossingEntities(), 120)
	if len(rec.Transitions) == 0 {
		t.Fatal("no transitions recorded")
	}
	if err := rec.Validate(); err != nil {
		t.Fatalf("recorded trace invalid: %v", err)
	}
	ups := 0
	for _, tr := range rec.Transitions {
		if tr.Up {
			ups++
		}
		if tr.A == 3 || tr.B == 3 {
			t.Fatalf("out-of-range entity 3 appears in %+v", tr)
		}
		if tr.Time != math.Trunc(tr.Time) {
			t.Fatalf("transition off the 1 s scan grid: %+v", tr)
		}
	}
	if ups != len(h.ups) {
		t.Fatalf("recorded %d ups, handler saw %d", ups, len(h.ups))
	}
	if n := maxNode(rec.Transitions); n != 2 {
		t.Fatalf("MaxNode = %d, want 2", n)
	}
}

func TestReplayMatchesLiveScan(t *testing.T) {
	rec, live := liveRecording(t, crossingEntities(), 120)

	s := event.NewScheduler()
	m := NewMedium(s, testCfg(), 4)
	h := &recorder{}
	m.SetHandler(h)
	// Re-record while replaying: the round trip must reproduce the trace.
	m.StartRecording()
	m.StartReplay(0, viewOf(t, rec))
	s.RunUntil(120)
	rerec := m.TakeRecording(120)

	if !reflect.DeepEqual(h.ups, live.ups) || !reflect.DeepEqual(h.downs, live.downs) {
		t.Fatalf("replay events diverged:\nlive ups %v downs %v\nreplay ups %v downs %v",
			live.ups, live.downs, h.ups, h.downs)
	}
	if !reflect.DeepEqual(rerec.Transitions, rec.Transitions) {
		t.Fatal("re-recorded replay trace differs from the original")
	}
	if m.ContactsSeen != uint64(len(live.ups)) {
		t.Fatalf("ContactsSeen = %d, want %d", m.ContactsSeen, len(live.ups))
	}
}

func TestReplayAbortsTransfersOnRecordedDowns(t *testing.T) {
	rec := &Recording{
		ScanInterval: 1,
		Duration:     30,
		Transitions: []Transition{
			{Time: 1, A: 0, B: 1, Up: true},
			{Time: 5, A: 0, B: 1, Up: false},
		},
	}
	s := event.NewScheduler()
	m := NewMedium(s, testCfg(), 2)
	h := &recorder{}
	out := &outcomes{}
	h.onUp = func(now float64, a, b int) {
		// 30 MB at 6 Mbit/s is 40 s — cannot finish before the down at 5 s.
		m.StartTransfer(a, b, 30e6)
	}
	m.SetHandler(h)
	m.SetTransferHandler(out)
	m.StartReplay(0, viewOf(t, rec))
	s.RunUntil(30)
	if len(out.aborted) != 1 {
		t.Fatal("recorded contact-down did not abort the in-flight transfer")
	}
	if m.TransfersAborted != 1 {
		t.Fatalf("TransfersAborted = %d, want 1", m.TransfersAborted)
	}
}

func TestStartReplayPanics(t *testing.T) {
	empty := viewOf(t, &Recording{ScanInterval: 1, Duration: 1})
	wrongScan := viewOf(t, &Recording{ScanInterval: 2, Duration: 1})
	unknownFirst := viewOf(t, &Recording{ScanInterval: 1, Duration: 1,
		Transitions: []Transition{{Time: 0, A: 0, B: 9, Up: true}}})
	unknownLater := viewOf(t, &Recording{ScanInterval: 1, Duration: 5,
		Transitions: []Transition{{Time: 3, A: 0, B: 9, Up: true}}})
	cases := map[string]func(*Medium){
		"after Start": func(m *Medium) {
			m.Start(0, []Entity{fixed(geo.Point{}), fixed(geo.Point{})})
			m.StartReplay(0, empty)
		},
		"scan mismatch": func(m *Medium) {
			m.StartReplay(0, wrongScan)
		},
		"unknown node": func(m *Medium) {
			m.StartReplay(0, unknownFirst)
		},
		// No tick runs here: an unknown node that first appears at a later
		// tick must still panic in StartReplay itself, not at that tick.
		"unknown node in view": func(m *Medium) {
			m.StartReplay(0, unknownLater)
		},
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			s := event.NewScheduler()
			m := NewMedium(s, testCfg(), 2)
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			fn(m)
		})
	}
}

// TestRecordingFormatRoundTrip: a live-captured recording survives the
// persisted format — encode, reopen, materialize — exactly, fractional
// scan intervals and times included.
func TestRecordingFormatRoundTrip(t *testing.T) {
	rec, _ := liveRecording(t, crossingEntities(), 90)
	for _, want := range []*Recording{rec, {ScanInterval: 0.1, Duration: 1.7,
		Transitions: []Transition{{Time: 0.30000000000000004, A: 1, B: 2, Up: true}}}} {
		got, err := decode(EncodeBinary(want))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("round trip changed the recording:\nin:  %+v\nout: %+v", want, got)
		}
	}
}

// TestValidateRejectsGarbage: every structural defect is rejected both by
// Validate on a slice and by the decoder on the encoded trace — one rule
// set for both forms.
func TestValidateRejectsGarbage(t *testing.T) {
	up := func(time float64, a, b int) Transition { return Transition{Time: time, A: a, B: b, Up: true} }
	for name, rec := range map[string]*Recording{
		"self contact":   {ScanInterval: 1, Duration: 10, Transitions: []Transition{up(0, 5, 5)}},
		"unordered pair": {ScanInterval: 1, Duration: 10, Transitions: []Transition{up(0, 2, 1)}},
		"time reversal": {ScanInterval: 1, Duration: 10, Transitions: []Transition{
			up(5, 1, 2), {Time: 3, A: 1, B: 2}}},
		"repeated state":  {ScanInterval: 1, Duration: 10, Transitions: []Transition{up(0, 1, 2), up(1, 1, 2)}},
		"first down":      {ScanInterval: 1, Duration: 10, Transitions: []Transition{{Time: 0, A: 1, B: 2}}},
		"beyond duration": {ScanInterval: 1, Duration: 10, Transitions: []Transition{up(20, 1, 2)}},
		"bad interval":    {ScanInterval: 0, Duration: 10},
		"bad duration":    {ScanInterval: 1, Duration: -1},
		"NaN interval":    {ScanInterval: math.NaN(), Duration: 10},
		"NaN duration":    {ScanInterval: 1, Duration: math.NaN()},
	} {
		err := rec.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted %+v", name, rec)
			continue
		}
		if name == "unordered pair" || name == "self contact" {
			continue // the codec's B-A-1 gap cannot express these pairs
		}
		if _, derr := NewRecordingView(EncodeBinary(rec)); derr == nil || !strings.Contains(derr.Error(), err.Error()) {
			t.Errorf("%s: decoder verdict %v, want it to carry Validate's %q", name, derr, err)
		}
	}
}

// TestValidateHugeNodeIDs: absurd node ids from corrupt input must not
// panic or hang the validator's pair state (a dense stride*stride table
// would overflow for ids near 2^32 and 3037000500); Validate treats them
// as structurally acceptable, and the codec round-trips them.
func TestValidateHugeNodeIDs(t *testing.T) {
	for _, b64 := range []int64{4294967295, 3037000500, 1 << 40} {
		b := int(b64)
		if int64(b) != b64 {
			continue // id does not fit this platform's int
		}
		rec := &Recording{ScanInterval: 1, Duration: 10,
			Transitions: []Transition{{Time: 1, A: 0, B: b, Up: true}}}
		if err := rec.Validate(); err != nil {
			t.Fatalf("id %d: structurally valid trace rejected: %v", b, err)
		}
		decoded, err := NewRecordingView(EncodeBinary(rec))
		if err != nil {
			t.Fatalf("id %d: %v", b, err)
		}
		if decoded.MaxNode() != b {
			t.Fatalf("id %d binary round-tripped as %d", b, decoded.MaxNode())
		}
	}
}

func TestRecordingWindows(t *testing.T) {
	rec := &Recording{
		ScanInterval: 1,
		Duration:     100,
		Transitions: []Transition{
			{Time: 2, A: 0, B: 1, Up: true},
			{Time: 5, A: 0, B: 2, Up: true},
			{Time: 8, A: 0, B: 1, Up: false},
			{Time: 10, A: 0, B: 1, Up: true}, // second window of the same pair
		},
	}
	got := rec.Windows()
	want := []contactplan.Contact{
		{A: 0, B: 1, Start: 2, End: 8},
		{A: 0, B: 2, Start: 5, End: 100}, // open contact closed at the horizon
		{A: 0, B: 1, Start: 10, End: 100},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Windows() = %+v, want %+v", got, want)
	}
}

// TestRecordingWindowsDropsFinalTickUp: the last scan tick of a run lands
// exactly at the horizon, so an up recorded there would make a zero-length
// window that contactplan.New rejects; Windows must drop it.
func TestRecordingWindowsDropsFinalTickUp(t *testing.T) {
	rec := &Recording{
		ScanInterval: 1,
		Duration:     100,
		Transitions: []Transition{
			{Time: 3, A: 0, B: 1, Up: true},
			{Time: 100, A: 0, B: 2, Up: true}, // up on the final tick
		},
	}
	want := []contactplan.Contact{{A: 0, B: 1, Start: 3, End: 100}}
	if got := rec.Windows(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Windows() = %+v, want %+v", got, want)
	}
}
