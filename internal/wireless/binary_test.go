package wireless

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// decode reads an encoded trace back through the codec's only decoder.
func decode(data []byte) (*Recording, error) {
	v, err := NewRecordingView(data)
	if err != nil {
		return nil, err
	}
	return v.Materialize(), nil
}

// TestBinaryRoundTrip: the binary codec reproduces a live-captured
// recording exactly.
func TestBinaryRoundTrip(t *testing.T) {
	rec, _ := liveRecording(t, crossingEntities(), 120)
	dec, err := decode(EncodeBinary(rec))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec, dec) {
		t.Fatalf("binary round trip changed the recording:\nin:  %+v\nout: %+v", rec, dec)
	}

	// Times with no short decimal form and an empty trace.
	for _, rec := range []*Recording{
		{ScanInterval: 0.1, Duration: 1.7,
			Transitions: []Transition{{Time: 0.30000000000000004, A: 1, B: 2, Up: true}}},
		{ScanInterval: 1, Duration: 10},
	} {
		dec, err := decode(EncodeBinary(rec))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rec, dec) {
			t.Fatalf("round trip changed %+v into %+v", rec, dec)
		}
	}
}

// randomRecording builds a structurally valid random trace: monotone
// non-decreasing times on a fractional scan grid, pairs alternating
// up/down correctly.
func randomRecording(rng *rand.Rand) *Recording {
	scan := []float64{1, 0.5, 0.1, 2.5}[rng.Intn(4)]
	n := rng.Intn(200)
	rec := &Recording{ScanInterval: scan, Duration: scan * float64(n+1)}
	up := make(map[pairKey]bool)
	time := 0.0
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 {
			time += scan * float64(1+rng.Intn(3))
		}
		if time > rec.Duration {
			break
		}
		a := rng.Intn(40)
		b := a + 1 + rng.Intn(40)
		k := pairKey{a, b}
		rec.Transitions = append(rec.Transitions, Transition{Time: time, A: a, B: b, Up: !up[k]})
		up[k] = !up[k]
	}
	return rec
}

// TestBinaryRoundTripRandomized is the codec's property test: across many
// random traces, the round trip is exact and re-encoding is deterministic.
func TestBinaryRoundTripRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		rec := randomRecording(rng)
		if err := rec.Validate(); err != nil {
			t.Fatalf("case %d: generator produced an invalid trace: %v", i, err)
		}
		enc := EncodeBinary(rec)
		dec, err := decode(enc)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(rec, dec) {
			t.Fatalf("case %d: binary round trip changed the recording", i)
		}
		// Determinism: re-encoding the decoded trace is byte-identical.
		if string(EncodeBinary(dec)) != string(enc) {
			t.Fatalf("case %d: encoding is not deterministic", i)
		}
	}
}

// TestTruncationRejectedAtEveryOffset is the integrity guarantee the
// format exists for: a trace cut short at ANY byte offset is an error,
// never decoded as a plausible shorter trace.
func TestTruncationRejectedAtEveryOffset(t *testing.T) {
	rec, _ := liveRecording(t, crossingEntities(), 120)
	if len(rec.Transitions) < 10 {
		t.Fatalf("fixture too small: %d transitions", len(rec.Transitions))
	}

	enc := EncodeBinary(rec)
	for i := 0; i < len(enc); i++ {
		if _, err := NewRecordingView(enc[:i]); err == nil {
			t.Fatalf("binary prefix of %d/%d bytes decoded cleanly", i, len(enc))
		}
	}
}

// TestBinaryRejectsBitFlips: CRC32 detects every single-bit flip anywhere
// in the file, including in the footer itself.
func TestBinaryRejectsBitFlips(t *testing.T) {
	rec, _ := liveRecording(t, crossingEntities(), 90)
	enc := EncodeBinary(rec)
	flipped := make([]byte, len(enc))
	for i := range enc {
		for bit := 0; bit < 8; bit++ {
			copy(flipped, enc)
			flipped[i] ^= 1 << bit
			if _, err := NewRecordingView(flipped); err == nil {
				t.Fatalf("flip of byte %d bit %d decoded cleanly", i, bit)
			}
		}
	}
}

// TestBinaryRejectsWrongVersion: a future-versioned file is refused with a
// version message, not misdecoded.
func TestBinaryRejectsWrongVersion(t *testing.T) {
	enc := EncodeBinary(&Recording{ScanInterval: 1, Duration: 10,
		Transitions: []Transition{{Time: 1, A: 0, B: 1, Up: true}}})
	enc[len(binaryMagic)] = 3 // bump the version field...
	// ...and re-seal the CRC so only the version check can object.
	binary.LittleEndian.PutUint32(enc[len(enc)-4:], crc32.ChecksumIEEE(enc[:len(enc)-4]))
	_, err := NewRecordingView(enc)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version accepted or misreported: %v", err)
	}
}

// --- benchmarks ------------------------------------------------------------

// benchRecording is a fleet-scale synthetic trace (size comparable to a
// 12-hour fig5 recording).
func benchRecording() *Recording {
	rng := rand.New(rand.NewSource(1))
	rec := &Recording{ScanInterval: 1, Duration: 43200}
	up := make(map[pairKey]bool)
	time := 0.0
	for {
		time += float64(1 + rng.Intn(3))
		if time > rec.Duration {
			break
		}
		a := rng.Intn(44)
		b := a + 1 + rng.Intn(45-a)
		k := pairKey{a, b}
		rec.Transitions = append(rec.Transitions, Transition{Time: time, A: a, B: b, Up: !up[k]})
		up[k] = !up[k]
	}
	return rec
}

// BenchmarkRecordingOpenView measures the decoder's open pass: envelope,
// CRC, and the full decode + structural validation of the stream.
func BenchmarkRecordingOpenView(b *testing.B) {
	enc := EncodeBinary(benchRecording())
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewRecordingView(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecordingEncodeBinary(b *testing.B) {
	rec := benchRecording()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EncodeBinary(rec)
	}
}
