// Package trace records the event stream of a simulation run: contact
// lifecycle, transfers, and the life of every message replica. A trace is
// the ground truth for debugging protocol behaviour and for offline
// analysis (contact statistics, per-message delivery paths) — the
// counterpart of the ONE simulator's report modules.
//
// The simulator emits events through a plain callback (sim.Config.Trace),
// so tracing costs nothing when disabled; this package provides the event
// vocabulary, an in-memory Log, and the TSV format: Writer streams it out
// and ReadTSV streams it back in.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"vdtn/internal/bundle"
)

// Kind enumerates traceable events.
type Kind int

// Event kinds, in rough lifecycle order.
const (
	// ContactUp: nodes A and B came into radio range.
	ContactUp Kind = iota
	// ContactDown: the A-B contact broke.
	ContactDown
	// TransferStart: A began transmitting Msg to B.
	TransferStart
	// TransferComplete: the transfer of Msg from A to B finished.
	TransferComplete
	// TransferAbort: the transfer of Msg from A to B was cut.
	TransferAbort
	// Created: node A generated Msg (destination B).
	Created
	// Delivered: Msg reached its destination B from carrier A.
	Delivered
	// RelayAccepted: B stored the replica of Msg received from A.
	RelayAccepted
	// RelayRejected: B refused the replica of Msg received from A.
	RelayRejected
	// Dropped: node A evicted Msg on buffer overflow.
	Dropped
	// Expired: Msg's TTL ran out at node A.
	Expired

	// NumKinds is the number of event kinds, for arrays indexed by Kind.
	NumKinds = iota
)

var kindNames = [...]string{
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

// String names the kind.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Event is one trace record. A is the acting node (sender, carrier,
// creator); B is the counterparty where one exists (receiver, destination),
// else -1. Msg is the message id where one applies, else 0.
type Event struct {
	Time float64
	Kind Kind
	A    int
	B    int
	Msg  bundle.ID
}

// Func is the callback signature the simulator invokes per event.
type Func func(Event)

// Log is an in-memory trace consumer.
// The zero value is ready to use.
type Log struct {
	events []Event
}

// Append implements Func; install it as the simulator's trace callback:
//
//	var lg trace.Log
//	cfg.Trace = lg.Append
func (l *Log) Append(ev Event) { l.events = append(l.events, ev) }

// Len returns the number of recorded events.
func (l *Log) Len() int { return len(l.events) }

// Events returns a copy of the recorded events, in emission order.
func (l *Log) Events() []Event {
	out := make([]Event, len(l.events))
	copy(out, l.events)
	return out
}

// ReadTSV reads back the TSV format Writer produces, so traces recorded in
// one session can be analyzed offline in another (cmd/traceview). It calls
// emit once per row, in file order, without holding the trace. The header
// row is required; unknown kinds, non-finite times and a time earlier than
// the previous row's fail loudly, naming the line.
func ReadTSV(r io.Reader, emit Func) error {
	sc := bufio.NewScanner(r)
	prev := math.Inf(-1)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if line == 1 && !strings.HasPrefix(text, "time\tkind") {
			return fmt.Errorf("trace: missing TSV header")
		}
		if line == 1 || text == "" {
			continue
		}
		fields := strings.Split(text, "\t")
		if len(fields) != 5 {
			return fmt.Errorf("trace: line %d: want 5 columns, got %d", line, len(fields))
		}
		t, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return fmt.Errorf("trace: line %d: bad time %q", line, fields[0])
		}
		if math.IsNaN(t) || math.IsInf(t, 0) {
			return fmt.Errorf("trace: line %d: non-finite time %q", line, fields[0])
		}
		if t < prev {
			return fmt.Errorf("trace: line %d: time %s before the previous row's %g", line, fields[0], prev)
		}
		prev = t
		kind := Kind(slices.Index(kindNames[:], fields[1]))
		if kind < 0 {
			return fmt.Errorf("trace: line %d: unknown kind %q", line, fields[1])
		}
		a, err := strconv.Atoi(fields[2])
		if err != nil {
			return fmt.Errorf("trace: line %d: bad node %q", line, fields[2])
		}
		b, err := strconv.Atoi(fields[3])
		if err != nil {
			return fmt.Errorf("trace: line %d: bad node %q", line, fields[3])
		}
		msgText := strings.TrimPrefix(fields[4], "M")
		msg, err := strconv.ParseInt(msgText, 10, 64)
		if err != nil {
			return fmt.Errorf("trace: line %d: bad message id %q", line, fields[4])
		}
		emit(Event{Time: t, Kind: kind, A: a, B: b, Msg: bundle.ID(msg)})
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("trace: line %d: %w", line+1, err)
	}
	if line == 0 {
		return fmt.Errorf("trace: missing TSV header")
	}
	return nil
}

// Writer is a streaming trace consumer emitting one TSV row per event.
type Writer struct {
	w   io.Writer
	err error
}

// NewWriter returns a streaming consumer; install its Emit as the trace
// callback. The header row is written immediately.
func NewWriter(w io.Writer) *Writer {
	tw := &Writer{w: w}
	_, tw.err = fmt.Fprintln(w, "time\tkind\ta\tb\tmsg")
	return tw
}

// Emit implements Func.
func (t *Writer) Emit(ev Event) {
	if t.err != nil {
		return
	}
	_, t.err = fmt.Fprintf(t.w, "%.3f\t%s\t%d\t%d\t%s\n",
		ev.Time, ev.Kind, ev.A, ev.B, ev.Msg)
}

// Err returns the first write error, if any.
func (t *Writer) Err() error { return t.err }
