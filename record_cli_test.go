package vdtn_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vdtn"
)

// TestVdtnsimRecordReplayRoundTrip drives the real vdtnsim through a
// record/replay round trip: -record-contacts writes exactly the trace
// RecordContacts produces for the scenario, a -replay-contacts run of that
// file prints the same metrics, and recording a contact-plan scenario is
// refused.
func TestVdtnsimRecordReplayRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real CLI")
	}
	bin := buildBinary(t, "./cmd/vdtnsim")
	dir := t.TempDir()
	trace := filepath.Join(dir, "run.contactsb")

	run := func(args ...string) string {
		t.Helper()
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err != nil {
			t.Fatalf("vdtnsim %s: %v\n%s", strings.Join(args, " "), err, out)
		}
		return string(out)
	}
	recorded := run("-duration", "1", "-record-contacts", trace)
	replayed := run("-duration", "1", "-replay-contacts", trace)

	// The record run ends with one extra line naming the written trace.
	metrics, _, ok := strings.Cut(recorded, "contact trace (")
	if !ok {
		t.Fatalf("record run did not report the written trace:\n%s", recorded)
	}
	if metrics != replayed {
		t.Fatalf("replay printed different metrics:\nrecord:\n%s\nreplay:\n%s", metrics, replayed)
	}

	cfg := vdtn.PaperConfig(60, vdtn.ProtoEpidemic, vdtn.PolicyFIFOFIFO, 1)
	cfg.Duration = 3600
	rec, err := vdtn.RecordContacts(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, vdtn.EncodeContactRecordingBinary(rec)) {
		t.Fatal("written trace differs from RecordContacts of the same scenario")
	}

	plan := filepath.Join(dir, "plan.txt")
	if err := os.WriteFile(plan, []byte("0 100 0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "-duration", "1", "-record-contacts", filepath.Join(dir, "plan.contactsb"), "-contacts", plan)
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Fatalf("-record-contacts with -contacts succeeded:\n%s", out)
	}
}

// TestVdtnsimRecordContactsValidatesFirst: the recording pass validates
// only the contact fields, so vdtnsim -record-contacts validates the whole
// scenario before it. An invalid TTL fails at once, with no trace written.
// The horizon is long enough (about 40 s of recording) that a recording
// pass run before the check would outlive the deadline.
func TestVdtnsimRecordContactsValidatesFirst(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real CLI")
	}
	bin := buildBinary(t, "./cmd/vdtnsim")
	trace := filepath.Join(t.TempDir(), "run.contactsb")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, bin, "-duration", "10000", "-ttl", "0", "-record-contacts", trace).CombinedOutput()
	if ctx.Err() != nil {
		t.Fatal("-record-contacts with an invalid TTL spent a recording pass before failing")
	}
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
		t.Fatalf("-record-contacts with an invalid TTL: %v, want exit 1\n%s", err, out)
	}
	if !strings.Contains(string(out), "non-positive TTL") {
		t.Fatalf("error does not name the TTL:\n%s", out)
	}
	if _, err := os.Stat(trace); !os.IsNotExist(err) {
		t.Fatalf("a trace was written for an invalid scenario (stat: %v)", err)
	}
}
