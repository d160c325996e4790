package vdtn_test

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestExperimentsSIGINTFlushesPartialArtifacts is the CI smoke gate for
// graceful CLI cancellation: cmd/experiments interrupted mid-sweep must
// exit non-zero, having still flushed every partial artifact — the CSV,
// the JSON artifact marked incomplete, and the JSONL stream footed with
// the interruption — instead of dying with nothing on disk.
func TestExperimentsSIGINTFlushesPartialArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and interrupts the real CLI")
	}
	if runtime.GOOS == "windows" {
		t.Skip("no SIGINT on windows")
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "experiments")
	build := exec.Command("go", "build", "-o", bin, "./cmd/experiments")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building cmd/experiments: %v\n%s", err, out)
	}

	outDir := filepath.Join(dir, "out")
	jsonlDir := filepath.Join(dir, "jsonl")
	// fig4 at full scale takes 0.6 to 0.9 s per seed with two workers on a
	// two-core host (ten seeds: 6.0 to 8.5 s), so twenty seeds outlast the
	// one-second interrupt delay more than ten times over and the signal
	// always lands mid-sweep.
	cmd := exec.Command(bin, "-figure", "fig4", "-seeds", "20", "-out", outDir, "-out-jsonl", jsonlDir)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(1 * time.Second)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	var waitErr error
	select {
	case waitErr = <-done:
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		t.Fatal("CLI did not exit within 60s of SIGINT — cancellation is not cooperative")
	}

	// Non-zero exit, by the conventional interrupted code.
	exitErr, ok := waitErr.(*exec.ExitError)
	if !ok {
		t.Fatalf("interrupted CLI exited zero (stderr: %s)", &stderr)
	}
	if code := exitErr.ExitCode(); code != 130 {
		t.Fatalf("exit code %d, want 130 (stderr: %s)", code, &stderr)
	}
	if !strings.Contains(stderr.String(), "interrupted") {
		t.Fatalf("stderr does not report the interruption: %s", &stderr)
	}

	// Partial artifacts flushed: CSV (at least its header), JSON artifact
	// flagged incomplete, JSONL stream footed with the reason.
	csv, err := os.ReadFile(filepath.Join(outDir, "fig4.csv"))
	if err != nil {
		t.Fatalf("partial CSV not flushed: %v", err)
	}
	if !strings.HasPrefix(string(csv), "experiment,metric,x,series,mean,ci95,n") {
		t.Fatalf("partial CSV malformed: %q", csv)
	}

	artifact, err := os.ReadFile(filepath.Join(outDir, "fig4.json"))
	if err != nil {
		t.Fatalf("partial JSON artifact not flushed: %v", err)
	}
	var art struct {
		Experiment string `json:"experiment"`
		Complete   *bool  `json:"complete"`
	}
	if err := json.Unmarshal(artifact, &art); err != nil {
		t.Fatalf("partial JSON artifact is not valid JSON: %v", err)
	}
	if art.Experiment != "fig4" || art.Complete == nil || *art.Complete {
		t.Fatalf("partial JSON artifact not marked incomplete: %s", artifact)
	}

	stream, err := os.ReadFile(filepath.Join(jsonlDir, "fig4.jsonl"))
	if err != nil {
		t.Fatalf("partial JSONL stream not flushed: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(stream)), "\n")
	if len(lines) < 2 {
		t.Fatalf("JSONL stream has %d lines, want at least header + footer", len(lines))
	}
	var footer struct {
		Cells    int    `json:"cells"`
		Complete bool   `json:"complete"`
		Error    string `json:"error"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &footer); err != nil {
		t.Fatalf("JSONL footer missing or malformed: %v (last line %q)", err, lines[len(lines)-1])
	}
	if footer.Complete || footer.Error == "" {
		t.Fatalf("JSONL footer does not record the interruption: %+v", footer)
	}
	if footer.Cells != len(lines)-2 {
		t.Fatalf("JSONL footer counts %d cells, stream has %d", footer.Cells, len(lines)-2)
	}
}
