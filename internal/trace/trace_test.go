package trace

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		ContactUp:        "contact_up",
		ContactDown:      "contact_down",
		TransferStart:    "transfer_start",
		TransferComplete: "transfer_complete",
		TransferAbort:    "transfer_abort",
		Created:          "created",
		Delivered:        "delivered",
		RelayAccepted:    "relay_accepted",
		RelayRejected:    "relay_rejected",
		Dropped:          "dropped",
		Expired:          "expired",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("out-of-range kind = %q", got)
	}
}

func TestLogAppendAndQuery(t *testing.T) {
	var l Log
	l.Append(Event{Time: 1, Kind: Created, A: 0, B: 5, Msg: 1})
	l.Append(Event{Time: 2, Kind: TransferStart, A: 0, B: 3, Msg: 1})
	l.Append(Event{Time: 3, Kind: Created, A: 2, B: 4, Msg: 2})
	l.Append(Event{Time: 4, Kind: Delivered, A: 3, B: 5, Msg: 1})

	if l.Len() != 4 {
		t.Fatalf("Len = %d", l.Len())
	}
	evs := l.Events()
	if len(evs) != 4 || evs[1].Kind != TransferStart || evs[3].Kind != Delivered {
		t.Fatalf("Events = %+v, want emission order", evs)
	}
}

func TestLogEventsIsCopy(t *testing.T) {
	var l Log
	l.Append(Event{Time: 1, Kind: Created, Msg: 1})
	evs := l.Events()
	evs[0].Msg = 99
	if l.Events()[0].Msg != 1 {
		t.Fatal("Events() aliases internal storage")
	}
}

// writeTSV encodes events through a Writer, the one TSV row formatter.
func writeTSV(t testing.TB, events []Event) string {
	t.Helper()
	var sb strings.Builder
	w := NewWriter(&sb)
	for _, ev := range events {
		w.Emit(ev)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// readTSV decodes text with ReadTSV, collecting the events.
func readTSV(text string) ([]Event, error) {
	var l Log
	err := ReadTSV(strings.NewReader(text), l.Append)
	return l.Events(), err
}

func TestWriteTSV(t *testing.T) {
	out := writeTSV(t, []Event{
		{Time: 1.5, Kind: ContactUp, A: 1, B: 2},
		{Time: 2.25, Kind: Created, A: 0, B: 5, Msg: 7},
	})
	want := "time\tkind\ta\tb\tmsg\n" +
		"1.500\tcontact_up\t1\t2\tM0\n" +
		"2.250\tcreated\t0\t5\tM7\n"
	if out != want {
		t.Fatalf("TSV =\n%s\nwant\n%s", out, want)
	}
}

func TestStreamingWriter(t *testing.T) {
	var sb strings.Builder
	w := NewWriter(&sb)
	w.Emit(Event{Time: 1, Kind: Dropped, A: 4, B: -1, Msg: 3})
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
	if !strings.Contains(sb.String(), "dropped\t4\t-1\tM3") {
		t.Fatalf("stream output:\n%s", sb.String())
	}
}

func TestParseTSVRoundTrip(t *testing.T) {
	want := []Event{
		{Time: 1.5, Kind: ContactUp, A: 1, B: 2},
		{Time: 2.25, Kind: Created, A: 0, B: 5, Msg: 7},
		{Time: 9, Kind: Delivered, A: 3, B: 5, Msg: 7},
		{Time: 9, Kind: Expired, A: 4, B: -1, Msg: 8},
	}
	got, err := readTSV(writeTSV(t, want))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("round trip drifted:\n got %+v\nwant %+v", got, want)
	}
}

// TSVErrorCases are inputs ReadTSV must reject, each with the error it
// must name. FuzzReadTSV seeds its corpus with them.
var TSVErrorCases = map[string]struct{ Text, Err string }{
	"empty":        {"", "missing TSV header"},
	"no header":    {"1.0\tcontact_up\t1\t2\tM0", "missing TSV header"},
	"bad columns":  {"time\tkind\ta\tb\tmsg\n1.0\tcontact_up\t1", "line 2: want 5 columns, got 3"},
	"bad time":     {"time\tkind\ta\tb\tmsg\nx\tcontact_up\t1\t2\tM0", `line 2: bad time "x"`},
	"unknown kind": {"time\tkind\ta\tb\tmsg\n1\twormhole\t1\t2\tM0", `line 2: unknown kind "wormhole"`},
	"bad node":     {"time\tkind\ta\tb\tmsg\n1\tcontact_up\tx\t2\tM0", `line 2: bad node "x"`},
	"bad peer":     {"time\tkind\ta\tb\tmsg\n1\tcontact_up\t1\ty\tM0", `line 2: bad node "y"`},
	"bad msg":      {"time\tkind\ta\tb\tmsg\n1\tcreated\t1\t2\tMx", `line 2: bad message id "Mx"`},
	"NaN time":     {"time\tkind\ta\tb\tmsg\n\nNaN\tcreated\t1\t2\tM1", `line 3: non-finite time "NaN"`},
	"Inf time":     {"time\tkind\ta\tb\tmsg\n1\tcreated\t1\t2\tM1\n-Inf\tcreated\t1\t2\tM2", `line 3: non-finite time "-Inf"`},
	"time backwards": {"time\tkind\ta\tb\tmsg\n5\tcreated\t1\t2\tM1\n5\tcreated\t1\t2\tM2\n\n4.999\tcreated\t1\t2\tM3",
		"line 5: time 4.999 before the previous row's 5"},
}

func TestParseTSVErrors(t *testing.T) {
	for name, c := range TSVErrorCases {
		_, err := readTSV(c.Text)
		if err == nil || !strings.Contains(err.Error(), c.Err) {
			t.Errorf("%s: ReadTSV(%q) = %v, want an error containing %q", name, c.Text, err, c.Err)
		}
	}
}

func TestParseTSVSkipsBlankLines(t *testing.T) {
	events, err := readTSV("time\tkind\ta\tb\tmsg\n\n1\tcreated\t0\t5\tM3\n\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Msg != 3 {
		t.Fatalf("events = %+v", events)
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestStreamingWriterSticksOnError(t *testing.T) {
	w := NewWriter(failingWriter{})
	if w.Err() == nil {
		t.Fatal("header write error not captured")
	}
	w.Emit(Event{}) // must not panic
}
