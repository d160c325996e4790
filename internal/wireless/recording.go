// Contact-trace recording: the capture side of the medium's record/replay
// pair. A Recording is the exact sequence of contact up/down transitions a
// scan-driven run produced, in the order the scan fired them. Replaying its
// binary form (EncodeBinary, then a RecordingView handed to
// Medium.StartReplay) reproduces the run's contact process bit-identically
// without touching mobility or the proximity grid — the basis of the
// experiment harness's contact cache, where one mobility simulation per
// (scenario, seed) pair is reused across every series and x-axis cell.
package wireless

import "slices"

// Transition is one contact state change, as fired by the proximity scan
// (or a contact plan). A < B always; Time is the scan tick the transition
// fired on.
type Transition struct {
	Time float64
	A, B int
	Up   bool
}

// Recording is a captured contact trace. ScanInterval is the tick period
// of the run that recorded it (replay must use the same period to keep
// event ordering aligned); Duration is the recorded horizon in seconds.
// Transitions are in firing order: non-decreasing time, and within one
// scan tick downs before ups — exactly as the live scan raises them.
//
// A Recording is immutable once captured. Replays read its encoding
// through a RecordingView, which concurrent replays may share (each Medium
// keeps its own cursor).
type Recording struct {
	ScanInterval float64
	Duration     float64
	Transitions  []Transition
}

// recordingChunk is the recording tap's chunk length, in transitions. The
// tap fills fixed-size chunks and copies them once, at exact length, when
// the recording is taken, instead of regrowing one slice: a long pass
// would otherwise copy its trace several times over and leave the freed
// copies resident.
const recordingChunk = 4096

// recordingTap collects a medium's transitions between StartRecording and
// TakeRecording.
type recordingTap struct {
	chunks [][]Transition
}

func (t *recordingTap) add(tr Transition) {
	last := len(t.chunks) - 1
	if last < 0 || len(t.chunks[last]) == recordingChunk {
		t.chunks = append(t.chunks, make([]Transition, 0, recordingChunk))
		last++
	}
	t.chunks[last] = append(t.chunks[last], tr)
}

// take returns the collected transitions as one slice of exact length (nil
// when there are none).
func (t *recordingTap) take() []Transition { return slices.Concat(t.chunks...) }

// Validate reports the first structural defect: non-positive scan interval
// or duration, unordered or negative pairs, timestamps outside [0, Duration]
// or decreasing, or a transition repeating the pair's current state (two
// ups or two downs in a row). It applies the streaming validator every
// decoded view passes at open, so a slice and a view obey one rule set.
func (r *Recording) Validate() error {
	val, err := newStreamValidator(r.ScanInterval, r.Duration)
	if err != nil {
		return err
	}
	for _, tr := range r.Transitions {
		if err := val.check(tr); err != nil {
			return err
		}
	}
	return nil
}

// Windows pairs the transitions into contact windows, in up-transition
// order. Contacts still open at the end of the trace are closed at
// Duration, so converting to a contact plan loses the open/closed
// distinction (a replay never fires downs the live run did not fire).
// An up on the final scan tick (exactly at Duration) would make a
// zero-length window and is dropped.
func (r *Recording) Windows() []ContactWindow {
	open := make(map[pairKey]int) // pair -> index into out of its open window
	var out []ContactWindow
	for _, tr := range r.Transitions {
		k := pairKey{tr.A, tr.B}
		if tr.Up {
			open[k] = len(out)
			out = append(out, ContactWindow{A: tr.A, B: tr.B, Start: tr.Time, End: r.Duration})
		} else if i, ok := open[k]; ok {
			out[i].End = tr.Time
			delete(open, k)
		}
	}
	kept := out[:0]
	for _, w := range out {
		if w.End > w.Start {
			kept = append(kept, w)
		}
	}
	return kept
}
