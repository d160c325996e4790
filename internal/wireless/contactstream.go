package wireless

// streamChunkLen is the byte capacity of one ContactStream chunk. A chunk
// goes out once another entry might not fit, so it holds about 115
// transitions of a paper run, whose entries average 8.6 bytes.
const streamChunkLen = 1024

// streamChunks is the size of a ContactStream's chunk pool: how far, in
// chunks, the pass may run ahead of the medium replaying it.
const streamChunks = 16

// ContactStream carries a contact pass's transitions from the goroutine
// running the pass to one Medium replaying them, as the pass fires them.
// The pass's medium encodes each transition into the binary codec's
// transition stream (StartStreaming); the replaying medium decodes it
// with the cursor every replay uses (StartStreamReplay). Chunks of the
// stream pass through two channels over a fixed pool, so a stream
// allocates its pool once and nothing per transition.
//
// The stream changes no byte of a run. The pass's transitions and their
// order are a pure function of its configuration; the goroutines decide
// only when a chunk becomes readable, and the replaying medium blocks
// until the chunk it needs is.
type ContactStream struct {
	full chan []byte     // filled chunks, in stream order; closed by Close
	free chan []byte     // read chunks, back to the pass
	done <-chan struct{} // closed once the replaying side stops reading

	// The pass's side.
	buf  []byte // the chunk being filled; nil once done has closed
	prev uint64 // time bits of the last transition encoded

	// fault is a panic the pass raised, handed over by Close before full
	// closes, and taken by the replaying side.
	fault any

	// The replaying side.
	cur []byte // the chunk the cursor reads, nil before the first
}

// NewContactStream returns an empty stream. done must close once the
// replaying side will read no more: a pass blocked on a full pool then
// stops filling chunks, and its medium drops every later transition.
func NewContactStream(done <-chan struct{}) *ContactStream {
	// Both channels hold the whole pool, so no send on either blocks.
	s := &ContactStream{
		full: make(chan []byte, streamChunks),
		free: make(chan []byte, streamChunks),
		done: done,
	}
	pool := make([]byte, streamChunks*streamChunkLen)
	for i := range streamChunks {
		s.free <- pool[i*streamChunkLen : i*streamChunkLen : (i+1)*streamChunkLen]
	}
	s.buf = <-s.free
	return s
}

// add encodes one transition, handing the chunk on once another entry
// might not fit.
func (s *ContactStream) add(tr Transition) {
	if s.buf == nil {
		return
	}
	s.buf, s.prev = appendTransition(s.buf, s.prev, tr)
	if cap(s.buf)-len(s.buf) < maxTransitionLen {
		s.send()
	}
}

// send hands the filled chunk on and takes a free one, waiting while the
// replaying side holds every other chunk.
func (s *ContactStream) send() {
	s.full <- s.buf // never blocks: full has room for the whole pool
	//vdtnlint:nondet-ok done closes only after the replaying side has stopped reading, so which case wins cannot reach a byte it reads
	select {
	case s.buf = <-s.free:
	case <-s.done:
		s.buf = nil
	}
}

// Close ends the stream, on the pass's goroutine, once the pass has run:
// its last partial chunk goes out and the replaying side reads the end of
// the stream after it. A non-nil fault is a panic the pass recovered; the
// replaying side re-raises it where the stream ends, in place of the
// end, so a failed pass cannot pass for one that fired no more contacts.
func (s *ContactStream) Close(fault any) {
	if fault == nil && len(s.buf) > 0 {
		s.full <- s.buf
	}
	s.buf = nil
	s.fault = fault
	close(s.full)
}

// next returns the next chunk, giving the one read before back to the
// pass, or nil at the end of the stream. It re-raises the pass's panic
// there.
func (s *ContactStream) next() []byte {
	if s.cur != nil {
		s.free <- s.cur[:0] // never blocks: free has room for the whole pool
	}
	s.cur = <-s.full
	if s.cur == nil {
		s.Reraise()
	}
	return s.cur
}

// Reraise re-raises, on the replaying side's goroutine, the panic the
// pass closed the stream with, unless the replaying medium raised it
// already where the stream ends. Call it only after the pass's goroutine
// has exited.
func (s *ContactStream) Reraise() {
	if f := s.fault; f != nil {
		s.fault = nil
		panic(f)
	}
}
