package wireless

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"vdtn/internal/event"
)

// toggleTrace returns a valid trace of n nodes over ticks scan ticks in
// which k random pairs change state each tick, downs before ups and each
// group in pair order, as the live scan fires them: thousands of
// transitions, so a stream of it spans many more chunks than its pool.
func toggleTrace(n, ticks, k int) *Recording {
	rnd := rand.New(rand.NewSource(1))
	up := make(map[pairKey]bool)
	rec := &Recording{ScanInterval: 1, Duration: float64(ticks)}
	for tick := 1; tick <= ticks; tick++ {
		var downs, ups []Transition
		seen := make(map[pairKey]bool)
		for range k {
			a, b := rnd.Intn(n), rnd.Intn(n)
			if a == b {
				continue
			}
			p := key(a, b)
			if seen[p] {
				continue
			}
			seen[p] = true
			tr := Transition{Time: float64(tick), A: p[0], B: p[1], Up: !up[p]}
			up[p] = tr.Up
			if tr.Up {
				ups = append(ups, tr)
			} else {
				downs = append(downs, tr)
			}
		}
		byPair := func(x, y Transition) int { return comparePairs(pairKey{x.A, x.B}, pairKey{y.A, y.B}) }
		slices.SortFunc(downs, byPair)
		slices.SortFunc(ups, byPair)
		rec.Transitions = append(append(rec.Transitions, downs...), ups...)
	}
	return rec
}

// feed streams rec into s from a goroutine of its own, as a contact pass
// would, and closes s with fault once every transition is in.
func feed(s *ContactStream, rec *Recording, fault any) {
	go func() {
		for _, tr := range rec.Transitions {
			s.add(tr)
		}
		s.Close(fault)
	}()
}

// replayingMedium returns a medium of n nodes that logs its contact events
// and re-records the transitions it fires.
func replayingMedium(n int) (*event.Scheduler, *Medium, *recorder) {
	sched := event.NewScheduler()
	m := NewMedium(sched, testCfg(), n)
	h := &recorder{}
	m.SetHandler(h)
	m.StartRecording()
	return sched, m, h
}

// TestContactStreamReplayMatchesView: a medium replaying a trace streamed
// chunk by chunk from another goroutine fires exactly the contact events
// and transitions of a medium replaying the trace's view.
func TestContactStreamReplayMatchesView(t *testing.T) {
	const n = 40
	rec := toggleTrace(n, 1500, 12)
	if size := len(EncodeBinary(rec)); size < 2*streamChunks*streamChunkLen {
		t.Fatalf("a trace of %d bytes is too short to overrun the pool twice", size)
	}

	sv, mv, hv := replayingMedium(n)
	mv.StartReplay(0, viewOf(t, rec))
	sv.RunUntil(rec.Duration)

	done := make(chan struct{})
	defer close(done)
	s := NewContactStream(done)
	feed(s, rec, nil)
	ss, ms, hs := replayingMedium(n)
	ms.StartStreamReplay(0, s)
	ss.RunUntil(rec.Duration)

	if !reflect.DeepEqual(hs.ups, hv.ups) || !reflect.DeepEqual(hs.downs, hv.downs) {
		t.Fatal("stream replay's contact events differ from the view replay's")
	}
	if got, want := ms.TakeRecording(rec.Duration), mv.TakeRecording(rec.Duration); !reflect.DeepEqual(got, want) {
		t.Fatal("stream replay fired other transitions than the view replay")
	}
}

// TestContactStreamChunksAreTheCodecStream: the chunks a stream hands on,
// read in order, are byte for byte the transition stream EncodeBinary
// writes between its header and footer: one codec, cut into chunks.
func TestContactStreamChunksAreTheCodecStream(t *testing.T) {
	rec := toggleTrace(40, 600, 12)
	done := make(chan struct{})
	defer close(done)
	s := NewContactStream(done)
	feed(s, rec, nil)
	var got []byte
	chunks := 0
	for c := s.next(); c != nil; c = s.next() {
		got = append(got, c...)
		chunks++
	}
	enc := EncodeBinary(rec)
	want := enc[binaryHeaderLen : len(enc)-binaryFooterLen]
	if !bytes.Equal(got, want) {
		t.Fatalf("stream chunks (%d bytes) differ from the codec's stream (%d bytes)", len(got), len(want))
	}
	if chunks <= streamChunks {
		t.Fatalf("%d chunks: the trace must overrun the %d-chunk pool", chunks, streamChunks)
	}
}

// TestContactStreamFaultRaisedWhereStreamEnds: a pass that panicked
// closes its stream with the panic, and the replaying medium re-raises it
// where the stream ends instead of running on with no more contacts; once
// raised, Reraise does not raise it again.
func TestContactStreamFaultRaisedWhereStreamEnds(t *testing.T) {
	rec := toggleTrace(40, 300, 12)
	done := make(chan struct{})
	defer close(done)
	s := NewContactStream(done)
	feed(s, rec, "pass fault")
	sched, m, _ := replayingMedium(40)
	func() {
		defer func() {
			if r := recover(); r != "pass fault" {
				t.Fatalf("recovered %v, want the pass's panic", r)
			}
		}()
		m.StartStreamReplay(0, s)
		sched.RunUntil(rec.Duration)
		t.Fatal("the replay ran to its horizon past a failed pass")
	}()
	s.Reraise() // must not panic: the fault was raised already
}

// TestContactStreamReraiseRaisesUnreadFault: when the replaying side
// stops before the end of the stream, Reraise raises the pass's panic.
func TestContactStreamReraiseRaisesUnreadFault(t *testing.T) {
	rec := toggleTrace(10, 5, 4)
	done := make(chan struct{})
	s := NewContactStream(done)
	sched, m, _ := replayingMedium(10)
	go func() {
		for _, tr := range rec.Transitions {
			s.add(tr)
		}
		s.send() // hand the first chunk on, so the replay can start
		s.Close("late fault")
	}()
	m.StartStreamReplay(0, s)
	sched.RunUntil(1)
	close(done)
	for range s.full { // wait for the close, as a pass's join does
	}
	defer func() {
		if r := recover(); r != "late fault" {
			t.Fatalf("Reraise recovered %v, want the pass's panic", r)
		}
	}()
	s.Reraise()
	t.Fatal("Reraise returned without raising the pass's panic")
}

// TestContactStreamDoneReleasesPass: a pass whose pool is full while the
// replaying side reads nothing more returns from its sends once done
// closes, and drops what it fires after that.
func TestContactStreamDoneReleasesPass(t *testing.T) {
	rec := toggleTrace(40, 600, 12)
	done := make(chan struct{})
	s := NewContactStream(done)
	finished := make(chan struct{})
	go func() {
		for _, tr := range rec.Transitions {
			s.add(tr)
		}
		s.Close(nil)
		close(finished)
	}()
	select {
	case <-finished:
		t.Fatal("the pass filled more chunks than its pool holds with no reader")
	case <-time.After(50 * time.Millisecond):
	}
	close(done)
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("closing done left the pass blocked")
	}
	if s.buf != nil {
		t.Fatal("the pass kept encoding after done closed")
	}
}
