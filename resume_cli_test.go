package vdtn_test

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

// killSpec is examples/sweeps/grid.json scaled up (3x2 grid, 8 seeds,
// 4 h horizon) so the single-worker cached sweep runs for most of a
// second — long enough that a timed SIGKILL reliably lands mid-cells
// instead of racing the exit.
const killSpec = `{
  "name": "ttl-copies-grid",
  "duration_hours": 4,
  "vehicles": 14,
  "relays": 2,
  "vehicle_buffer_mb": 10,
  "relay_buffer_mb": 20,
  "sweep": {
    "id": "ttl-copies-grid",
    "title": "Delivery probability over a TTL x copy-budget grid",
    "axes": [
      {"axis": "ttl_min", "values": [15, 30, 45]},
      {"axis": "copies", "values": [4, 12]}
    ],
    "metric": "delivery_prob",
    "seeds": [1, 2, 3, 4, 5, 6, 7, 8],
    "scale": 1
  },
  "series": [
    {"name": "SprayAndWait/Lifetime", "protocol": "spraywait", "policy": "lifetime"}
  ]
}`

// TestExperimentsKillAndResumeByteIdentical is the CI smoke gate for
// crash-safe sweeps: cmd/experiments SIGKILL'd mid-run (no chance to
// flush, foot, or close anything) and rerun with -resume must produce a
// JSONL stream byte-identical to an uninterrupted run's. The kill lands
// at several delays so every lifecycle window is exercised — before the
// header, mid-cells, and after the run already finished (where -resume
// must keep a complete file untouched, not re-run or corrupt it). A
// shared -cache-dir across the killed and resumed runs additionally
// makes the resumed run serve whatever traces the killed one persisted.
func TestExperimentsKillAndResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills the real CLI")
	}
	if runtime.GOOS == "windows" {
		t.Skip("no SIGKILL on windows")
	}

	bin := filepath.Join(t.TempDir(), "experiments")
	build := exec.Command("go", "build", "-o", bin, "./cmd/experiments")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building cmd/experiments: %v\n%s", err, out)
	}
	spec := filepath.Join(t.TempDir(), "heavy-grid.json")
	if err := os.WriteFile(spec, []byte(killSpec), 0o644); err != nil {
		t.Fatal(err)
	}

	// The in-test golden: one uninterrupted run of the same spec. Its own
	// cache dir and default workers keep it quick — the stream's bytes do
	// not depend on either.
	goldenDir := filepath.Join(t.TempDir(), "jsonl")
	ref := exec.Command(bin, "-spec", spec, "-out-jsonl", goldenDir, "-cache-dir", filepath.Join(t.TempDir(), "cache"))
	if out, err := ref.CombinedOutput(); err != nil {
		t.Fatalf("golden run failed: %v\n%s", err, out)
	}
	golden, err := os.ReadFile(filepath.Join(goldenDir, "ttl-copies-grid.jsonl"))
	if err != nil {
		t.Fatal(err)
	}

	partials := 0
	for _, delay := range []time.Duration{
		0, 200 * time.Millisecond, 500 * time.Millisecond, 30 * time.Second,
	} {
		t.Run(fmt.Sprintf("kill-after-%s", delay), func(t *testing.T) {
			dir := t.TempDir()
			jsonlDir := filepath.Join(dir, "jsonl")
			cacheDir := filepath.Join(dir, "cache")
			stream := filepath.Join(jsonlDir, "ttl-copies-grid.jsonl")

			// First run: SIGKILL after the delay. -workers 1 stretches the
			// sweep to ~1s so the mid delays land mid-cells; it finishes
			// well inside 30s, so the longest delay is the complete-file
			// case. The resume runs use default workers — the stream's
			// bytes are deterministic regardless of worker count, and the
			// mixed setting pins that too.
			first := exec.Command(bin, "-spec", spec, "-out-jsonl", jsonlDir, "-cache-dir", cacheDir, "-workers", "1")
			if err := first.Start(); err != nil {
				t.Fatal(err)
			}
			killed := false
			done := make(chan error, 1)
			go func() { done <- first.Wait() }()
			select {
			case <-time.After(delay):
				if err := first.Process.Signal(syscall.SIGKILL); err == nil {
					killed = true
				}
				<-done
			case <-done:
			}
			if cut, err := os.ReadFile(stream); err == nil && killed && len(cut) > 0 && len(cut) < len(golden) {
				partials++
			}
			t.Logf("first run killed=%v", killed)

			// Second run, -resume: must complete the stream exactly.
			var stderr bytes.Buffer
			second := exec.Command(bin, "-spec", spec, "-out-jsonl", jsonlDir, "-cache-dir", cacheDir, "-resume")
			second.Stderr = &stderr
			if err := second.Run(); err != nil {
				t.Fatalf("resume run failed: %v\n%s", err, &stderr)
			}
			got, err := os.ReadFile(stream)
			if err != nil {
				t.Fatalf("resumed stream missing: %v", err)
			}
			if !bytes.Equal(got, golden) {
				t.Fatalf("resumed stream differs from the uninterrupted golden\n--- got ---\n%s--- want ---\n%s", got, golden)
			}

			// Third run over the now-complete stream: still byte-identical —
			// -resume is idempotent, not additive.
			third := exec.Command(bin, "-spec", spec, "-out-jsonl", jsonlDir, "-cache-dir", cacheDir, "-resume")
			if out, err := third.CombinedOutput(); err != nil {
				t.Fatalf("resume over a complete stream failed: %v\n%s", err, out)
			}
			again, err := os.ReadFile(stream)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, golden) {
				t.Fatal("second resume over a complete stream changed its bytes")
			}
		})
	}
	// At least one kill should have caught the stream mid-cells; if none
	// did, the delays no longer straddle the sweep and need retuning.
	t.Logf("mid-stream kills: %d", partials)
}

// TestExperimentsResumeRejectsForeignStream: -resume against a stream
// written for a different sweep must refuse rather than splice cells from
// two experiments into one file.
func TestExperimentsResumeRejectsForeignStream(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real CLI")
	}

	bin := filepath.Join(t.TempDir(), "experiments")
	build := exec.Command("go", "build", "-o", bin, "./cmd/experiments")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building cmd/experiments: %v\n%s", err, out)
	}
	spec, err := filepath.Abs(filepath.Join("examples", "sweeps", "grid.json"))
	if err != nil {
		t.Fatal(err)
	}

	jsonlDir := filepath.Join(t.TempDir(), "jsonl")
	if err := os.MkdirAll(jsonlDir, 0o755); err != nil {
		t.Fatal(err)
	}
	foreign := `{"format":"vdtn-sweep-jsonl/1","experiment":"ttl-copies-grid","metric":"delivery","seeds":99}` + "\n"
	if err := os.WriteFile(filepath.Join(jsonlDir, "ttl-copies-grid.jsonl"), []byte(foreign), 0o644); err != nil {
		t.Fatal(err)
	}

	var stderr bytes.Buffer
	cmd := exec.Command(bin, "-spec", spec, "-out-jsonl", jsonlDir, "-resume")
	cmd.Stderr = &stderr
	err = cmd.Run()
	if err == nil {
		t.Fatalf("resume over a foreign stream succeeded; stderr: %s", &stderr)
	}
	if !strings.Contains(stderr.String(), "different sweep") {
		t.Fatalf("stderr does not explain the refusal: %s", &stderr)
	}
}

// TestExperimentsResumeNeedsJSONL: -resume without -out-jsonl has nothing
// to resume from and must exit with a usage error.
func TestExperimentsResumeNeedsJSONL(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real CLI")
	}
	bin := filepath.Join(t.TempDir(), "experiments")
	build := exec.Command("go", "build", "-o", bin, "./cmd/experiments")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building cmd/experiments: %v\n%s", err, out)
	}
	var stderr bytes.Buffer
	cmd := exec.Command(bin, "-resume")
	cmd.Stderr = &stderr
	err := cmd.Run()
	exitErr, ok := err.(*exec.ExitError)
	if !ok || exitErr.ExitCode() != 2 {
		t.Fatalf("-resume without -out-jsonl: err = %v, want exit 2 (stderr: %s)", err, &stderr)
	}
	if !strings.Contains(stderr.String(), "-out-jsonl") {
		t.Fatalf("stderr does not point at the missing flag: %s", &stderr)
	}
}

// TestExperimentsResumeLeavesCompleteStreamUntouched: -resume over a
// stream that already holds every cell and its footer rewrites nothing —
// the file keeps its bytes and its mtime — while the table still renders
// from the reused cells.
func TestExperimentsResumeLeavesCompleteStreamUntouched(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real CLI")
	}
	bin := filepath.Join(t.TempDir(), "experiments")
	build := exec.Command("go", "build", "-o", bin, "./cmd/experiments")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building cmd/experiments: %v\n%s", err, out)
	}
	spec, err := filepath.Abs(filepath.Join("examples", "sweeps", "grid.json"))
	if err != nil {
		t.Fatal(err)
	}
	jsonlDir := filepath.Join(t.TempDir(), "jsonl")
	stream := filepath.Join(jsonlDir, "ttl-copies-grid.jsonl")
	fresh, err := exec.Command(bin, "-spec", spec, "-out-jsonl", jsonlDir).CombinedOutput()
	if err != nil {
		t.Fatalf("first run failed: %v\n%s", err, fresh)
	}
	want, err := os.ReadFile(stream)
	if err != nil {
		t.Fatal(err)
	}
	stamp := time.Date(2001, 2, 3, 4, 5, 6, 0, time.UTC)
	if err := os.Chtimes(stream, stamp, stamp); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	resumed := exec.Command(bin, "-spec", spec, "-out-jsonl", jsonlDir, "-resume")
	resumed.Stdout, resumed.Stderr = &stdout, &stderr
	if err := resumed.Run(); err != nil {
		t.Fatalf("resume over a complete stream failed: %v\n%s", err, &stderr)
	}
	got, err := os.ReadFile(stream)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resume over a complete stream changed its bytes")
	}
	fi, err := os.Stat(stream)
	if err != nil {
		t.Fatal(err)
	}
	if !fi.ModTime().Equal(stamp) {
		t.Fatalf("resume over a complete stream rewrote it: mtime %v, want %v", fi.ModTime(), stamp)
	}
	if !strings.Contains(stderr.String(), "reusing 8 completed cells") {
		t.Fatalf("stderr does not report the reused cells: %s", &stderr)
	}
	table := func(out string) string { return out[:strings.Index(out, "(8/8 runs")] }
	if !strings.Contains(stdout.String(), "(8/8 runs") || table(stdout.String()) != table(string(fresh)) {
		t.Fatalf("resumed run did not render the fresh run's table:\n--- fresh ---\n%s--- resumed ---\n%s", fresh, &stdout)
	}
}
