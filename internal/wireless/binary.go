// Binary contact-trace codec, version 2: the one persisted form of a
// Recording. The experiment harness persists one trace per (scenario,
// seed) fingerprint and the vdtnsim CLI records and replays traces in it;
// RecordingView (view.go) is its only decoder.
//
// Layout (all fixed-width integers little-endian):
//
//	magic    "VDTNCB"                        6 bytes
//	version  uint16 (= 2)                    2 bytes
//	scan     float64 bits                    8 bytes
//	duration float64 bits                    8 bytes
//	stream   one entry per transition:
//	           flags    byte (bit0 = up)
//	           time     varint delta of the float64 bit pattern
//	                    vs the previous transition (0 for same-tick)
//	           nodeA    uvarint
//	           nodeB    uvarint gap (B - A - 1; B > A always)
//	footer   transition count uint64         8 bytes
//	         CRC32 (IEEE) of all prior bytes 4 bytes
//
// The footer makes damage detectable instead of silently replayable: a
// truncated file fails the CRC (and the count no longer matches the
// decoded stream), and any bit flip fails the CRC. The varint time deltas
// are lossless — bit patterns, not values, are delta-coded — so for any
// recording that passes Validate, decoding EncodeBinary(r) reproduces r
// exactly, including times that have no short decimal form.
package wireless

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

const (
	binaryMagic   = "VDTNCB"
	binaryVersion = 2

	binaryHeaderLen = len(binaryMagic) + 2 + 8 + 8
	binaryFooterLen = 8 + 4
)

// maxBinaryNode bounds decoded node ids so that A + gap + 1 can never
// overflow the platform's int — every id the rest of the system can
// represent (and that EncodeBinary therefore emits for a Validate-clean
// recording) decodes back, keeping the round trip exact.
const maxBinaryNode = math.MaxInt / 2

// isBinaryRecording reports whether data starts with the binary codec's
// magic.
func isBinaryRecording(data []byte) bool {
	return len(data) >= len(binaryMagic) && string(data[:len(binaryMagic)]) == binaryMagic
}

// EncodeBinary renders the recording in the binary codec. The encoding is
// deterministic: equal recordings produce equal bytes.
func EncodeBinary(r *Recording) []byte {
	buf := make([]byte, 0, binaryHeaderLen+6*len(r.Transitions)+binaryFooterLen)
	buf = append(buf, binaryMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, binaryVersion)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.ScanInterval))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Duration))
	prev := uint64(0)
	for _, tr := range r.Transitions {
		buf, prev = appendTransition(buf, prev, tr)
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(r.Transitions)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf
}

// maxTransitionLen bounds one stream entry: a flags byte and three
// varints.
const maxTransitionLen = 1 + 3*binary.MaxVarintLen64

// appendTransition appends tr's stream entry to buf, its time delta-coded
// against prev, the time bits of the transition before it (0 for the
// first), and returns the grown buffer and tr's own time bits. Every
// encoder of the transition stream writes through it: EncodeBinary and a
// ContactStream's chunks.
func appendTransition(buf []byte, prev uint64, tr Transition) ([]byte, uint64) {
	var flags byte
	if tr.Up {
		flags = 1
	}
	buf = append(buf, flags)
	bits := math.Float64bits(tr.Time)
	buf = binary.AppendVarint(buf, int64(bits-prev)) // wrapping delta; decode wraps back
	buf = binary.AppendUvarint(buf, uint64(tr.A))
	buf = binary.AppendUvarint(buf, uint64(tr.B-tr.A-1))
	return buf, bits
}

// binEnvelope is a binary trace whose container has been verified: magic,
// version, CRC32 and the count sanity bound all checked. The transition
// stream itself is still raw bytes — RecordingView decodes it with a
// binCursor (see stream.go).
type binEnvelope struct {
	scanInterval float64
	duration     float64
	stream       []byte
	count        uint64
}

// parseBinaryEnvelope verifies the container of a binary trace. Integrity
// is checked before the stream is trusted: a short read, torn write or bit
// flip fails the CRC (the count is covered by it too) and is reported as
// an error — never handed to a decoder as a plausible shorter trace.
func parseBinaryEnvelope(data []byte) (binEnvelope, error) {
	if !isBinaryRecording(data) {
		return binEnvelope{}, fmt.Errorf("wireless: not a binary contact recording (bad magic)")
	}
	if len(data) < binaryHeaderLen+binaryFooterLen {
		return binEnvelope{}, fmt.Errorf("wireless: binary recording truncated: %d bytes, header and footer need %d",
			len(data), binaryHeaderLen+binaryFooterLen)
	}
	crcOff := len(data) - 4
	if want, got := binary.LittleEndian.Uint32(data[crcOff:]), crc32.ChecksumIEEE(data[:crcOff]); want != got {
		return binEnvelope{}, fmt.Errorf("wireless: binary recording CRC mismatch (stored %08x, computed %08x): truncated or corrupt", want, got)
	}
	countOff := crcOff - 8
	count := binary.LittleEndian.Uint64(data[countOff:crcOff])

	p := data[len(binaryMagic):countOff]
	version := binary.LittleEndian.Uint16(p)
	p = p[2:]
	if version != binaryVersion {
		return binEnvelope{}, fmt.Errorf("wireless: binary recording version %d, this codec reads %d", version, binaryVersion)
	}
	env := binEnvelope{
		scanInterval: math.Float64frombits(binary.LittleEndian.Uint64(p)),
		duration:     math.Float64frombits(binary.LittleEndian.Uint64(p[8:])),
		stream:       p[16:],
		count:        count,
	}
	if count > uint64(len(env.stream)) { // a transition occupies at least one byte; cheap sanity bound
		return binEnvelope{}, fmt.Errorf("wireless: binary recording declares %d transitions in a %d-byte stream", count, len(env.stream))
	}
	return env, nil
}
