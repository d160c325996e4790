// Streaming access to binary contact traces: the incremental decoder
// (binCursor), the one-transition-at-a-time validator (streamValidator)
// that both RecordingView and Recording.Validate run, and the ReplaySource
// interface that lets replay consume a trace without a materialized
// []Transition.
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

// TransitionCursor yields the transitions of one trace in firing order.
// Next returns false after the final transition. Cursors are single-use
// and not safe for concurrent use; take one cursor per replaying medium
// (the backing trace may be shared freely).
type TransitionCursor interface {
	Next() (Transition, bool)
}

// ReplaySource is a contact trace a Medium can replay: metadata, the
// highest referenced node id, and a fresh transition cursor per consumer.
// Both the in-memory *Recording and the zero-copy *RecordingView implement
// it; sources handed to StartReplay must already be structurally valid
// (Recording.Validate clean — a view validates on open).
type ReplaySource interface {
	Meta() RecordingMeta
	MaxNode() int
	Cursor() TransitionCursor
}

// Meta returns the recording's metadata block.
func (r *Recording) Meta() RecordingMeta {
	return RecordingMeta{ScanInterval: r.ScanInterval, Duration: r.Duration, Transitions: len(r.Transitions)}
}

// Cursor returns a fresh cursor over the recording's transitions,
// implementing ReplaySource.
func (r *Recording) Cursor() TransitionCursor { return &sliceCursor{trs: r.Transitions} }

// sliceCursor iterates a materialized transition slice.
type sliceCursor struct {
	trs []Transition
	i   int
}

func (c *sliceCursor) Next() (Transition, bool) {
	if c.i >= len(c.trs) {
		return Transition{}, false
	}
	tr := c.trs[c.i]
	c.i++
	return tr, true
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

// streamValidator applies the structural trace rules to a transition
// stream incrementally: a view checks its stream at open and
// Recording.Validate checks its slice, one transition at a time. Pair
// state lives in a dense bitmap for the common small-id case — grown
// geometrically as higher ids appear, since a stream's MaxNode is unknown
// up front — with a map fallback for huge or sparse id spaces (including
// absurd ids from corrupt input). The state structure is the only
// allocation, paid once per validation pass.
type streamValidator struct {
	duration float64
	last     float64
	i        int

	stride int    // dense bitmap stride; rows/cols are node ids
	dense  []bool // pair (a, b) up-state at a*stride+b
	sparse map[pairKey]bool
}

// streamDenseMax is the dense-path cutoff: beyond this stride the bitmap
// (stride² bools) costs more than the map.
const streamDenseMax = 1 << 11

func newStreamValidator(scanInterval, duration float64) (*streamValidator, error) {
	if scanInterval <= 0 {
		return nil, fmt.Errorf("wireless: recording has non-positive scan interval %v", scanInterval)
	}
	if duration <= 0 {
		return nil, fmt.Errorf("wireless: recording has non-positive duration %v", duration)
	}
	const initialStride = 64
	return &streamValidator{
		duration: duration,
		stride:   initialStride,
		dense:    make([]bool, initialStride*initialStride),
	}, nil
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
	var up bool
	if v.sparse != nil {
		up = v.sparse[pairKey{tr.A, tr.B}]
	} else {
		if tr.B >= v.stride {
			v.grow(tr.B)
		}
		if v.sparse != nil { // grow fell back to the map
			up = v.sparse[pairKey{tr.A, tr.B}]
		} else {
			up = v.dense[tr.A*v.stride+tr.B]
		}
	}
	if up == tr.Up {
		return fmt.Errorf("wireless: recording transition %d repeats state up=%v of pair (%d, %d)", v.i, tr.Up, tr.A, tr.B)
	}
	if v.sparse != nil {
		v.sparse[pairKey{tr.A, tr.B}] = tr.Up
	} else {
		v.dense[tr.A*v.stride+tr.B] = tr.Up
	}
	v.last = tr.Time
	v.i++
	return nil
}

// grow widens the dense bitmap to cover node id b (geometric doubling, so
// re-indexing amortizes), or migrates the accumulated state to the map
// when ids outgrow the dense cutoff (the cutoff check runs before the
// doubling, so absurd ids from corrupt input cannot overflow the stride).
func (v *streamValidator) grow(b int) {
	if b >= streamDenseMax {
		v.sparse = make(map[pairKey]bool)
		for i, up := range v.dense {
			if up {
				v.sparse[pairKey{i / v.stride, i % v.stride}] = true
			}
		}
		v.dense = nil
		return
	}
	stride := v.stride
	for b >= stride {
		stride *= 2
	}
	wide := make([]bool, stride*stride)
	for i, up := range v.dense {
		if up {
			wide[(i/v.stride)*stride+i%v.stride] = true
		}
	}
	v.dense = wide
	v.stride = stride
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
