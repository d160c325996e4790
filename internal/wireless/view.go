package wireless

import (
	"fmt"
	"sync"
)

// RecordingView is a read-only, fully validated view of a binary contact
// trace that replays without materializing a []Transition — the codec's
// only decoder. Opened over a memory-mapped file (OpenRecordingView), the
// transition stream lives in the kernel page cache: concurrent sweep
// processes replaying the same persisted trace share one physical copy,
// and each replaying cell pays only a cursor — zero per-cell allocation
// proportional to the trace. Callers that need the slice form call
// Materialize.
//
// Every integrity and structural check runs once at open (CRC32,
// transition count, per-entry decode checks, time ordering, state
// alternation), so a view that opened cleanly is exactly as trusted as a
// validated *Recording and its cursors cannot fail mid-replay. The view is
// immutable and safe for concurrent cursors; Close (unmapping the file)
// must not race live cursors.
type RecordingView struct {
	meta    RecordingMeta
	stream  []byte
	maxNode int

	unmap     func() error
	closeOnce sync.Once
	closeErr  error
	closed    bool
}

// NewRecordingView validates the binary trace held in data and returns a
// view over it without decoding a transition slice. data must stay
// unmodified for the view's lifetime.
func NewRecordingView(data []byte) (*RecordingView, error) {
	return newRecordingView(data, nil)
}

// OpenRecordingView memory-maps the binary trace at path (falling back to
// a plain read on platforms without mmap) and validates it once. Close
// releases the mapping.
func OpenRecordingView(path string) (*RecordingView, error) {
	data, unmap, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	v, err := newRecordingView(data, unmap)
	if err != nil {
		if unmap != nil {
			unmap()
		}
		return nil, err
	}
	return v, nil
}

// newRecordingView runs the full decode + structural validation pass,
// without building the slice, and captures the trace's MaxNode along the
// way.
func newRecordingView(data []byte, unmap func() error) (*RecordingView, error) {
	env, err := parseBinaryEnvelope(data)
	if err != nil {
		return nil, err
	}
	val, err := newStreamValidator(env.scanInterval, env.duration)
	if err != nil {
		return nil, fmt.Errorf("wireless: binary recording invalid: %w", err)
	}
	maxNode := -1
	cur := binCursor{p: env.stream}
	for {
		tr, ok, err := cur.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if err := val.check(tr); err != nil {
			return nil, fmt.Errorf("wireless: binary recording invalid: %w", err)
		}
		if tr.B > maxNode {
			maxNode = tr.B
		}
	}
	if uint64(cur.n) != env.count {
		return nil, fmt.Errorf("wireless: binary recording truncated: footer declares %d transitions, stream held %d",
			env.count, cur.n)
	}
	return &RecordingView{
		meta:    RecordingMeta{ScanInterval: env.scanInterval, Duration: env.duration, Transitions: int(env.count)},
		stream:  env.stream,
		maxNode: maxNode,
		unmap:   unmap,
	}, nil
}

// Meta returns the trace's header fields and transition count.
func (v *RecordingView) Meta() RecordingMeta { return v.meta }

// Len returns the number of transitions in the trace.
func (v *RecordingView) Len() int { return v.meta.Transitions }

// MaxNode returns the highest node id referenced; -1 for an empty trace.
func (v *RecordingView) MaxNode() int { return v.maxNode }

// Cursor returns a fresh cursor over the trace, implementing ReplaySource.
// Cursors are independent; any number may iterate the shared stream
// concurrently.
func (v *RecordingView) Cursor() TransitionCursor {
	if v.closed {
		panic("wireless: Cursor on a closed RecordingView")
	}
	return &viewCursor{cur: binCursor{p: v.stream}}
}

// Materialize decodes the view into a standalone in-memory Recording —
// for callers that need the slice form (plan export, inspection) of a
// trace they otherwise replay zero-copy. The result is independent of the
// view's backing memory and stays valid after Close.
func (v *RecordingView) Materialize() *Recording {
	rec := &Recording{ScanInterval: v.meta.ScanInterval, Duration: v.meta.Duration}
	if v.meta.Transitions > 0 {
		rec.Transitions = make([]Transition, 0, v.meta.Transitions)
	}
	c := v.Cursor()
	for {
		tr, ok := c.Next()
		if !ok {
			return rec
		}
		rec.Transitions = append(rec.Transitions, tr)
	}
}

// Close releases the file mapping, if any. Idempotent; must not race live
// cursors (the mapped pages vanish under them).
func (v *RecordingView) Close() error {
	v.closeOnce.Do(func() {
		v.closed = true
		if v.unmap != nil {
			v.closeErr = v.unmap()
			v.unmap = nil
		}
	})
	return v.closeErr
}

// viewCursor decodes the validated stream lazily. Decode errors are
// impossible on bytes the open pass already accepted, so a failure here
// means the backing memory changed underneath the view (a truncated or
// rewritten mapped file) — a scenario-assembly bug, reported by panic like
// the Medium's other misuse cases.
type viewCursor struct {
	cur binCursor
}

func (c *viewCursor) Next() (Transition, bool) {
	tr, ok, err := c.cur.next()
	if err != nil {
		panic(fmt.Sprintf("wireless: validated recording view failed to decode (backing file changed?): %v", err))
	}
	return tr, ok
}
