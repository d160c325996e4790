package wireless

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// goldenRecording is the fixture pinned by the golden-format test. Do not
// change it: its exact bytes are checked in under testdata, and together
// they freeze the .contactsb v2 wire format. The transitions exercise the
// encoder's interesting paths — a same-tick delta of zero, fractional
// ticks, a time with no short decimal representation, a re-up of an
// earlier pair, and a wide node gap.
func goldenRecording() *Recording {
	return &Recording{
		ScanInterval: 0.5,
		Duration:     12.5,
		Transitions: []Transition{
			{Time: 0, A: 0, B: 1, Up: true},
			{Time: 0.5, A: 0, B: 2, Up: true},
			{Time: 0.5, A: 1, B: 2, Up: true},
			{Time: 1.5, A: 0, B: 1, Up: false},
			{Time: 3.0000000000000004, A: 0, B: 1, Up: true},
			{Time: 12.5, A: 2, B: 40, Up: true},
		},
	}
}

const goldenFile = "testdata/golden_v2.contactsb"

// TestGoldenBinaryFormat pins the .contactsb v2 on-disk bytes: the encoder
// must reproduce the checked-in golden file exactly, and the decoder must
// read the golden file back into the fixture. A codec edit that
// changes the wire format — reordered fields, different varint packing, a
// new version byte — fails here loudly instead of silently orphaning every
// persisted cache directory. If the format must change, bump the version,
// keep a decoder for v2, and regenerate the golden via
// UPDATE_GOLDEN=1 go test ./internal/wireless -run TestGoldenBinaryFormat.
func TestGoldenBinaryFormat(t *testing.T) {
	rec := goldenRecording()
	if err := rec.Validate(); err != nil {
		t.Fatalf("golden fixture invalid: %v", err)
	}
	enc := EncodeBinary(rec)

	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden bytes to %s", len(enc), goldenFile)
	}

	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("no golden file (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(enc, want) {
		t.Fatalf("EncodeBinary changed the v2 wire format:\n got %d bytes % x\nwant %d bytes % x\n"+
			"this breaks every persisted .contactsb cache — bump the format version instead",
			len(enc), enc, len(want), want)
	}

	v, err := NewRecordingView(want)
	if err != nil {
		t.Fatalf("golden file no longer decodes: %v", err)
	}
	if dec := v.Materialize(); !reflect.DeepEqual(dec, rec) {
		t.Fatalf("golden file decoded to a different trace:\n got %+v\nwant %+v", dec, rec)
	}
}
