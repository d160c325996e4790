// Streaming access to binary contact traces: the incremental decoder
// (binCursor) that RecordingView opens with, materializes with and every
// replaying Medium reads from, and the one-transition-at-a-time validator
// (streamValidator) that both RecordingView and Recording.Validate run.
package wireless

import (
	"encoding/binary"
	"errors"
	"fmt"
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

// binCursor decodes the transition stream of a checked binEnvelope one
// transition at a time, with no allocation. It performs the per-entry
// decode checks (flags, varint shape, node-id bounds); structural trace
// rules (time ordering, state alternation) are streamValidator's job.
type binCursor struct {
	p    []byte
	bits uint64
	n    int
}

func (c *binCursor) next() (Transition, bool, error) {
	if len(c.p) == 0 {
		return Transition{}, false, nil
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

// mustNext is next over a stream its view already validated. Decode errors
// are impossible on bytes the open pass accepted, so a failure here means
// the backing memory changed underneath the view (a truncated or rewritten
// mapped file) — a scenario-assembly bug, reported by panic like the
// Medium's other misuse cases.
func (c *binCursor) mustNext() (Transition, bool) {
	tr, ok, err := c.next()
	if err != nil {
		panic(fmt.Sprintf("wireless: validated recording view failed to decode (backing file changed?): %v", err))
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

// mapFile returns the contents of path, memory-mapped read-only when the
// platform supports it (see mmap_unix.go), plus the unmap function (nil
// when the bytes are heap-backed and need no release). Every failure to
// get at the bytes is an *os.PathError, so callers can tell an unreadable
// file from a damaged one.
func mapFile(path string) ([]byte, func() error, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	if !fi.Mode().IsRegular() {
		return nil, nil, &os.PathError{Op: "read", Path: path, Err: errors.New("not a regular file")}
	}
	size := fi.Size()
	if size == 0 {
		// mmap rejects empty ranges; an empty file fails envelope parsing
		// with the truncation message either way.
		return nil, nil, nil
	}
	if size != int64(int(size)) {
		return nil, nil, &os.PathError{Op: "read", Path: path, Err: fmt.Errorf("%d bytes do not fit this platform's address space", size)}
	}
	data, unmap, err := mmapReadOnly(f, int(size))
	if err != nil {
		return nil, nil, &os.PathError{Op: "read", Path: path, Err: err}
	}
	if unmap != nil {
		// Only genuinely mapped pages take access-pattern hints; the
		// heap-backed fallback (unmap == nil) has nothing to advise.
		adviseReplayAccess(data)
	}
	return data, unmap, nil
}
