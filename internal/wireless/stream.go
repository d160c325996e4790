// Streaming access to binary contact traces: the incremental decoder
// (binCursor) that RecordingView opens with, materializes with and every
// replaying Medium reads from, a view or a ContactStream alike, and the
// one-transition-at-a-time validator (streamValidator) that both
// RecordingView and Recording.Validate run.
package wireless

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// RecordingMeta is the fixed-size description of a contact trace: the two
// header fields plus the transition count — everything a replay needs to
// know about a trace before touching its stream.
type RecordingMeta struct {
	// ScanInterval is the tick period of the run that recorded the trace.
	ScanInterval float64
	// Duration is the recorded horizon in seconds.
	Duration float64
	// Transitions is the number of contact transitions in the trace.
	Transitions int
}

// binCursor decodes a transition stream one transition at a time, with no
// allocation: the stream of a checked binEnvelope, or the chunks of a
// ContactStream, read in turn as if they were one stream. It performs the
// per-entry decode checks (flags, varint shape, node-id bounds);
// structural trace rules (time ordering, state alternation) are
// streamValidator's job.
type binCursor struct {
	p    []byte
	bits uint64
	n    int
	src  *ContactStream // refills p when it runs dry; nil for a view
}

func (c *binCursor) next() (Transition, bool, error) {
	if len(c.p) == 0 {
		if c.src != nil {
			c.p = c.src.next()
		}
		if len(c.p) == 0 {
			return Transition{}, false, nil
		}
	}
	flags := c.p[0]
	if flags > 1 {
		return Transition{}, false, fmt.Errorf("wireless: binary recording transition %d has unknown flags %#x", c.n, flags)
	}
	p := c.p[1:]
	delta, n := binary.Varint(p)
	if n <= 0 {
		return Transition{}, false, fmt.Errorf("wireless: binary recording transition %d has a bad time delta", c.n)
	}
	p = p[n:]
	a, n := binary.Uvarint(p)
	if n <= 0 || a >= maxBinaryNode {
		return Transition{}, false, fmt.Errorf("wireless: binary recording transition %d has a bad node id", c.n)
	}
	p = p[n:]
	gap, n := binary.Uvarint(p)
	if n <= 0 || gap >= maxBinaryNode {
		return Transition{}, false, fmt.Errorf("wireless: binary recording transition %d has a bad pair gap", c.n)
	}
	c.p = p[n:]
	c.bits += uint64(delta)
	c.n++
	return Transition{
		Time: math.Float64frombits(c.bits),
		A:    int(a),
		B:    int(a + gap + 1),
		Up:   flags == 1,
	}, true, nil
}

// mustNext is next over a stream its view already validated, or one a
// contact pass encoded. Decode errors are impossible on bytes the open
// pass accepted or the encoder wrote, so a failure here means a caller
// changed the bytes handed to NewRecordingView after the view opened — a
// scenario-assembly bug, reported by panic like the Medium's other misuse
// cases.
func (c *binCursor) mustNext() (Transition, bool) {
	tr, ok, err := c.next()
	if err != nil {
		panic(fmt.Sprintf("wireless: validated recording view failed to decode (backing bytes changed?): %v", err))
	}
	return tr, ok
}

// streamValidator applies the structural trace rules to a transition
// stream incrementally: a view checks its stream at open and
// Recording.Validate checks its slice, one transition at a time. Its only
// state is the set of pairs currently up, so memory follows the number of
// open contacts, never the size of the id space.
type streamValidator struct {
	duration float64
	last     float64
	i        int
	up       map[pairKey]struct{}
}

func newStreamValidator(scanInterval, duration float64) (*streamValidator, error) {
	// Negated comparisons, so NaN fails too: a NaN scan interval could
	// never match a medium's, and a NaN horizon would admit any time.
	if !(scanInterval > 0) {
		return nil, fmt.Errorf("wireless: recording has non-positive scan interval %v", scanInterval)
	}
	if !(duration > 0) {
		return nil, fmt.Errorf("wireless: recording has non-positive duration %v", duration)
	}
	return &streamValidator{duration: duration, up: make(map[pairKey]struct{})}, nil
}

// check admits one transition or reports the first structural defect.
func (v *streamValidator) check(tr Transition) error {
	switch {
	case tr.A < 0 || tr.B <= tr.A:
		return fmt.Errorf("wireless: recording transition %d has bad pair (%d, %d)", v.i, tr.A, tr.B)
	case tr.Time < v.last:
		return fmt.Errorf("wireless: recording transition %d at %v before predecessor at %v", v.i, tr.Time, v.last)
	case tr.Time > v.duration:
		return fmt.Errorf("wireless: recording transition %d at %v beyond duration %v", v.i, tr.Time, v.duration)
	}
	k := pairKey{tr.A, tr.B}
	if _, up := v.up[k]; up == tr.Up {
		return fmt.Errorf("wireless: recording transition %d repeats state up=%v of pair (%d, %d)", v.i, tr.Up, tr.A, tr.B)
	}
	if tr.Up {
		v.up[k] = struct{}{}
	} else {
		delete(v.up, k)
	}
	v.last = tr.Time
	v.i++
	return nil
}

// readFile returns the contents of path. Every failure to get at the bytes
// is an *os.PathError, so callers can tell an unreadable file from a
// damaged one.
func readFile(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if !fi.Mode().IsRegular() {
		return nil, &os.PathError{Op: "read", Path: path, Err: errors.New("not a regular file")}
	}
	size := fi.Size()
	if size != int64(int(size)) {
		return nil, &os.PathError{Op: "read", Path: path, Err: fmt.Errorf("%d bytes do not fit this platform's address space", size)}
	}
	data := make([]byte, size)
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, &os.PathError{Op: "read", Path: path, Err: err}
	}
	return data, nil
}
