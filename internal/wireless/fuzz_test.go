package wireless

import (
	"math/rand"
	"testing"

	"vdtn/internal/event"
	"vdtn/internal/units"
)

// fuzzSeedRecordings are the hand-picked traces whose encodings (and
// mutations of them) seed the fuzz corpus: the empty trace, fractional
// ticks, times with no short decimal form, repeated pairs, and a
// large-gap node pair.
func fuzzSeedRecordings() []*Recording {
	return []*Recording{
		{ScanInterval: 1, Duration: 10},
		{ScanInterval: 1, Duration: 10, Transitions: []Transition{
			{Time: 1, A: 0, B: 1, Up: true},
			{Time: 3, A: 0, B: 1, Up: false},
		}},
		{ScanInterval: 0.5, Duration: 12.5, Transitions: []Transition{
			{Time: 0, A: 0, B: 1, Up: true},
			{Time: 0.5, A: 0, B: 2, Up: true},
			{Time: 1.5, A: 0, B: 1, Up: false},
			{Time: 3.0000000000000004, A: 0, B: 1, Up: true},
			{Time: 12.5, A: 2, B: 40, Up: true},
		}},
	}
}

// encodeEqual compares two recordings by their canonical binary encoding —
// bit-pattern exact, so traces containing NaN floats (which Validate does
// not forbid and reflect.DeepEqual cannot compare) still compare correctly.
func encodeEqual(a, b *Recording) bool {
	return string(EncodeBinary(a)) == string(EncodeBinary(b))
}

// FuzzDecodeBinary is the binary codec's robustness target, run against
// its only decoder, NewRecordingView. For arbitrary bytes the view must
// never panic. An accepted input must materialize to a structurally valid
// trace (never a silently-short or silently-invalid one) whose MaxNode and
// length the view reports, and that trace must re-encode to bytes the
// view reopens to the same transitions. Views are the only replay input,
// so an accepted input must also replay: a Medium with nodes
// 0..MaxNode runs it to its horizon without panicking, its contact set
// consistent after every tick.
func FuzzDecodeBinary(f *testing.F) {
	// Seeds: valid encodings, truncations at awkward offsets (inside the
	// header, mid-stream, inside the footer), bit flips, and non-binary
	// junk — the corpus the truncation/bit-flip tests sweep.
	rng := rand.New(rand.NewSource(1))
	for _, rec := range fuzzSeedRecordings() {
		enc := EncodeBinary(rec)
		f.Add(enc)
		for _, cut := range []int{0, 3, len(enc) / 2, len(enc) - 5, len(enc) - 1} {
			if cut >= 0 && cut <= len(enc) {
				f.Add(enc[:cut])
			}
		}
		for i := 0; i < 8; i++ {
			flipped := append([]byte(nil), enc...)
			flipped[rng.Intn(len(flipped))] ^= 1 << rng.Intn(8)
			f.Add(flipped)
		}
	}
	f.Add([]byte{})
	f.Add([]byte("VDTNCB"))
	f.Add([]byte("# vdtn contact recording\nscan 1\nduration 10\nend 0\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		view, err := NewRecordingView(data)
		if err != nil {
			return
		}
		rec := view.Materialize()
		if err := rec.Validate(); err != nil {
			t.Fatalf("accepted trace fails Validate: %v", err)
		}
		if view.MaxNode() != maxNode(rec.Transitions) || view.Len() != len(rec.Transitions) {
			t.Fatalf("view MaxNode/Len (%d, %d) disagree with the materialized trace (%d, %d)",
				view.MaxNode(), view.Len(), maxNode(rec.Transitions), len(rec.Transitions))
		}

		// The re-encoding reopens to the same transitions.
		again, err := NewRecordingView(EncodeBinary(rec))
		if err != nil {
			t.Fatalf("re-encoded accepted trace rejected: %v", err)
		}
		if !encodeEqual(rec, again.Materialize()) {
			t.Fatal("re-encode round trip changed the trace")
		}

		// The medium holds state per node and fires one event per scan
		// tick, so the replay is bounded in both; traces beyond the bounds
		// are held to the decode checks above.
		const maxReplayNodes, maxReplayTicks = 1 << 12, 1 << 16
		meta := view.Meta()
		if view.MaxNode() >= maxReplayNodes || !(meta.Duration/meta.ScanInterval <= maxReplayTicks) {
			return
		}
		s := event.NewScheduler()
		m := NewMedium(s, Config{Range: 30, Rate: units.Mbit(6), ScanInterval: meta.ScanInterval}, view.MaxNode()+1)
		m.SetHandler(&recorder{})
		m.StartReplay(0, view)
		var broken error
		s.RunUntilCheck(meta.Duration, 1, func() bool {
			broken = m.CheckInvariants()
			return broken != nil
		})
		if broken != nil {
			t.Fatalf("replay at t=%v broke the contact set: %v", s.Now(), broken)
		}
	})
}
