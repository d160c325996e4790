package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"vdtn/internal/trace"
	"vdtn/internal/units"
)

// TestProtocolPolicyDigests pins every router's output: for each
// protocol × policy pair and two seeds it hashes the Result JSON and the
// full trace event stream of a 2 h run and compares them with
// testdata/protocol_policy_digests.txt. TestReplayEquivalence compares two
// runs of the same router code, so only this golden catches a routing
// change that shifts results. Regenerate after an intended change with
//
//	UPDATE_GOLDEN=1 go test ./internal/sim -run TestProtocolPolicyDigests
func TestProtocolPolicyDigests(t *testing.T) {
	var got bytes.Buffer
	protocols, policies := protoPolicyPairs()
	for _, proto := range protocols {
		for _, pol := range policies {
			for _, seed := range []uint64{7, 11} {
				cfg := replayConfig(seed)
				cfg.Duration = units.Hours(2)
				cfg.Protocol = proto
				cfg.Policy = pol
				res, events := runTraced(t, cfg)
				js, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&got, "%s/%s/%d result=%x trace=%x\n",
					proto, pol, seed, sha256.Sum256(js), eventsDigest(events))
			}
		}
	}

	goldenPath := filepath.Join("testdata", "protocol_policy_digests.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", goldenPath)
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if bytes.Equal(got.Bytes(), golden) {
		return
	}
	gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(golden, []byte("\n"))
	for i := range max(len(gotLines), len(wantLines)) {
		if g, w := lineAt(gotLines, i), lineAt(wantLines, i); !bytes.Equal(g, w) {
			t.Errorf("line %d diverged from golden %s:\n got  %s\n want %s", i+1, goldenPath, g, w)
		}
	}
}

// eventsDigest hashes the exact field values of every event, times by
// their float bits, so no formatting can round two streams together.
func eventsDigest(events []trace.Event) [sha256.Size]byte {
	h := sha256.New()
	var rec [40]byte
	for _, ev := range events {
		binary.LittleEndian.PutUint64(rec[0:], math.Float64bits(ev.Time))
		binary.LittleEndian.PutUint64(rec[8:], uint64(ev.Kind))
		binary.LittleEndian.PutUint64(rec[16:], uint64(ev.A))
		binary.LittleEndian.PutUint64(rec[24:], uint64(ev.B))
		binary.LittleEndian.PutUint64(rec[32:], uint64(ev.Msg))
		h.Write(rec[:])
	}
	return [sha256.Size]byte(h.Sum(nil))
}

func lineAt(lines [][]byte, i int) []byte {
	if i < len(lines) {
		return lines[i]
	}
	return []byte("(missing)")
}
