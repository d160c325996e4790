package wireless

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"vdtn/internal/event"
)

// writeTempTrace persists rec's binary encoding and returns the path.
func writeTempTrace(t *testing.T, rec *Recording) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.contactsb")
	if err := os.WriteFile(path, EncodeBinary(rec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// viewOf opens a view over rec's binary encoding — the form every replay
// reads.
func viewOf(tb testing.TB, rec *Recording) *RecordingView {
	tb.Helper()
	v, err := NewRecordingView(EncodeBinary(rec))
	if err != nil {
		tb.Fatal(err)
	}
	return v
}

// maxNode returns the highest node id in trs; -1 when empty.
func maxNode(trs []Transition) int {
	n := -1
	for _, tr := range trs {
		n = max(n, tr.A, tr.B)
	}
	return n
}

// TestRecordingViewMatchesDecode: a view over encoded bytes exposes
// exactly the recording it was encoded from — metadata, MaxNode, and the
// transition stream — without building the slice.
func TestRecordingViewMatchesDecode(t *testing.T) {
	rec, _ := liveRecording(t, crossingEntities(), 120)
	enc := EncodeBinary(rec)

	v, err := NewRecordingView(enc)
	if err != nil {
		t.Fatal(err)
	}
	meta := v.Meta()
	if meta.ScanInterval != rec.ScanInterval || meta.Duration != rec.Duration || meta.Transitions != len(rec.Transitions) {
		t.Fatalf("view meta %+v does not describe the recording", meta)
	}
	if want := maxNode(rec.Transitions); v.MaxNode() != want {
		t.Fatalf("view MaxNode = %d, recording %d", v.MaxNode(), want)
	}
	if got := v.Materialize(); !reflect.DeepEqual(got, rec) {
		t.Fatalf("view materialized a different recording:\nin:  %+v\nout: %+v", rec, got)
	}

	// Independent cursors see independent streams.
	c1, c2 := v.cursor(), v.cursor()
	tr1, ok1 := c1.mustNext()
	if !ok1 || tr1 != rec.Transitions[0] {
		t.Fatalf("cursor 1 first transition = %+v, want %+v", tr1, rec.Transitions[0])
	}
	tr2, ok2 := c2.mustNext()
	if !ok2 || tr2 != rec.Transitions[0] {
		t.Fatal("second cursor did not start from the top")
	}
}

// TestRecordingViewEmptyTrace: an empty-but-valid trace opens and yields
// no transitions.
func TestRecordingViewEmptyTrace(t *testing.T) {
	v, err := NewRecordingView(EncodeBinary(&Recording{ScanInterval: 1, Duration: 10}))
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 0 || v.MaxNode() != -1 {
		t.Fatalf("empty view: Len=%d MaxNode=%d", v.Len(), v.MaxNode())
	}
	c := v.cursor()
	if _, ok := c.mustNext(); ok {
		t.Fatal("empty view yielded a transition")
	}
}

// TestOpenRecordingView: the file-backed open path round-trips a persisted
// trace, Close is idempotent, and a missing file is os.IsNotExist.
func TestOpenRecordingView(t *testing.T) {
	rec, _ := liveRecording(t, crossingEntities(), 90)
	path := writeTempTrace(t, rec)

	v, err := OpenRecordingView(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.Materialize(); !reflect.DeepEqual(got, rec) {
		t.Fatal("opened view materialized a different recording")
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	if _, err := OpenRecordingView(filepath.Join(t.TempDir(), "absent.contactsb")); !os.IsNotExist(err) {
		t.Fatalf("missing file error = %v, want os.IsNotExist", err)
	}
}

// TestOpenedViewIgnoresLaterFileWrites: a view holds its own copy of the
// bytes it validated, so overwriting the file in place after open (same
// length, no truncation) changes neither what the view materializes nor
// what a medium replays from it.
func TestOpenedViewIgnoresLaterFileWrites(t *testing.T) {
	rec, live := liveRecording(t, crossingEntities(), 120)
	path := writeTempTrace(t, rec)
	v, err := OpenRecordingView(path)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	junk := make([]byte, len(EncodeBinary(rec)))
	for i := range junk {
		junk[i] = 0xff
	}
	if _, err := f.WriteAt(junk, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	if got := v.Materialize(); !reflect.DeepEqual(got, rec) {
		t.Fatal("view changed after its file was overwritten")
	}
	s := event.NewScheduler()
	m := NewMedium(s, testCfg(), len(crossingEntities()))
	h := &recorder{}
	m.SetHandler(h)
	m.StartReplay(0, v)
	s.RunUntil(120)
	if !reflect.DeepEqual(h.ups, live.ups) || !reflect.DeepEqual(h.downs, live.downs) {
		t.Fatal("replay of the view diverged after its file was overwritten")
	}
}

// TestViewRejectsWhatDecodeRejects: for every truncation offset of a real
// trace, the file-backed open path reaches the same verdict as decoding
// the bytes in memory, and the complete file is the only one accepted.
func TestViewRejectsWhatDecodeRejects(t *testing.T) {
	rec, _ := liveRecording(t, crossingEntities(), 120)
	enc := EncodeBinary(rec)
	path := filepath.Join(t.TempDir(), "trace.contactsb")
	for i := 0; i <= len(enc); i++ {
		data := enc[:i]
		_, memErr := NewRecordingView(data)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		v, fileErr := OpenRecordingView(path)
		if fileErr == nil {
			v.Close()
		}
		if (memErr == nil) != (fileErr == nil) {
			t.Fatalf("prefix %d/%d: NewRecordingView err=%v, OpenRecordingView err=%v", i, len(enc), memErr, fileErr)
		}
		if (memErr == nil) != (i == len(enc)) {
			t.Fatalf("prefix %d/%d: verdict err=%v", i, len(enc), memErr)
		}
	}
}

// TestReaderRejectsLyingCount: a file whose CRC is valid but whose footer
// count disagrees with the stream — constructible by an attacker or a
// buggy writer, not by truncation — is rejected by the trace reader.
func TestReaderRejectsLyingCount(t *testing.T) {
	rec := &Recording{ScanInterval: 1, Duration: 10, Transitions: []Transition{
		{Time: 1, A: 0, B: 1, Up: true},
		{Time: 2, A: 0, B: 1, Up: false},
	}}
	enc := EncodeBinary(rec)
	// Rewrite the count (2 -> 1) and re-seal the CRC.
	binary.LittleEndian.PutUint64(enc[len(enc)-12:len(enc)-4], 1)
	binary.LittleEndian.PutUint32(enc[len(enc)-4:], crc32.ChecksumIEEE(enc[:len(enc)-4]))

	if _, err := NewRecordingView(enc); err == nil {
		t.Fatal("NewRecordingView accepted a lying count")
	}
}

// TestViewHugeNodeIDs: absurd node ids (legal per the codec, possible in
// corrupt-but-CRC-valid input) must not hang or blow up the streaming
// validator, whose pair state holds only the pairs currently up.
func TestViewHugeNodeIDs(t *testing.T) {
	for _, b64 := range []int64{4294967295, 3037000500, 1 << 40} {
		b := int(b64)
		if int64(b) != b64 {
			continue // id does not fit this platform's int
		}
		rec := &Recording{ScanInterval: 1, Duration: 10,
			Transitions: []Transition{
				{Time: 1, A: 0, B: 1, Up: true},
				{Time: 2, A: 0, B: b, Up: true},
			}}
		v, err := NewRecordingView(EncodeBinary(rec))
		if err != nil {
			t.Fatalf("id %d: structurally valid trace rejected: %v", b, err)
		}
		if v.MaxNode() != b {
			t.Fatalf("id %d viewed with MaxNode %d", b, v.MaxNode())
		}
		if !reflect.DeepEqual(v.Materialize(), rec) {
			t.Fatalf("id %d changed across the view round trip", b)
		}
	}
}

// TestViewCursorAfterCloseMisuse: replaying a closed view is a caller bug
// and panics in StartReplay.
func TestViewCursorAfterCloseMisuse(t *testing.T) {
	rec, _ := liveRecording(t, crossingEntities(), 90)
	v, err := OpenRecordingView(writeTempTrace(t, rec))
	if err != nil {
		t.Fatal(err)
	}
	v.Close()
	m := NewMedium(event.NewScheduler(), testCfg(), len(crossingEntities()))
	defer func() {
		if recover() == nil {
			t.Fatal("StartReplay of a closed view did not panic")
		}
	}()
	m.StartReplay(0, v)
}

// TestMediumReplaysFromView: the Medium replays a RecordingView source
// identically to the in-memory recording it was encoded from.
func TestMediumReplaysFromView(t *testing.T) {
	rec, live := liveRecording(t, crossingEntities(), 120)
	v, err := NewRecordingView(EncodeBinary(rec))
	if err != nil {
		t.Fatal(err)
	}

	s := event.NewScheduler()
	m := NewMedium(s, testCfg(), 4)
	h := &recorder{}
	m.SetHandler(h)
	m.StartReplay(0, v)
	s.RunUntil(120)

	if !reflect.DeepEqual(h.ups, live.ups) || !reflect.DeepEqual(h.downs, live.downs) {
		t.Fatal("view replay diverged from the live scan's contact events")
	}
}
