package vdtn_test

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestTraceCLIGolden pins the stdout of vdtnsim -analyze and of traceview
// reading the trace it wrote, byte for byte, and checks that the -trace
// file does not depend on -analyze.
func TestTraceCLIGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real CLIs")
	}
	vdtnsim := buildBinary(t, "./cmd/vdtnsim")
	traceview := buildBinary(t, "./cmd/traceview")

	// Each run works in its own directory with the same relative trace
	// path, so the path echoed on stdout matches the golden.
	run := func(dir, bin string, args ...string) string {
		t.Helper()
		cmd := exec.Command(bin, args...)
		cmd.Dir = dir
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s %s: %v", filepath.Base(bin), strings.Join(args, " "), err)
		}
		return string(out)
	}
	golden := func(name, got string) {
		t.Helper()
		want, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("stdout differs from testdata/%s:\ngot:\n%s\nwant:\n%s", name, got, want)
		}
	}
	scenario := []string{"-duration", "1", "-policy", "lifetime", "-ttl", "120", "-trace", "run.tsv"}

	analyzed := t.TempDir()
	golden("trace_cli_vdtnsim_analyze.txt", run(analyzed, vdtnsim, append(scenario, "-analyze")...))
	golden("trace_cli_traceview_paths.txt", run(analyzed, traceview, "-paths", "run.tsv"))
	golden("trace_cli_traceview_top3.txt", run(analyzed, traceview, "-horizon", "3600", "-top", "3", "run.tsv"))

	plain := t.TempDir()
	run(plain, vdtnsim, scenario...)
	withAnalysis, err := os.ReadFile(filepath.Join(analyzed, "run.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	without, err := os.ReadFile(filepath.Join(plain, "run.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(withAnalysis, without) {
		t.Fatal("-trace bytes depend on -analyze")
	}
}

// TestVdtnsimTraceWriteErrorFails runs vdtnsim -trace into a full device
// on a run whose whole trace fits the write buffer, so the only failing
// write is the final flush. The run must exit 1, name the error on
// stderr, and not claim the trace was written.
func TestVdtnsimTraceWriteErrorFails(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real CLI")
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	vdtnsim := buildBinary(t, "./cmd/vdtnsim")
	cmd := exec.Command(vdtnsim, "-duration", "0.05", "-trace", "/dev/full")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("exit: %v, want status 1\nstderr: %s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "trace write") {
		t.Errorf("stderr does not name the trace write error: %q", stderr.String())
	}
	if strings.Contains(string(out), "trace written") {
		t.Errorf("stdout reports the trace written:\n%s", out)
	}
}
