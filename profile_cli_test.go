package vdtn_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestProfileFlagsLeaveOutputsUnchanged runs vdtnsim and experiments with
// and without -cpuprofile/-memprofile: both profiles must be written, and
// stdout, the -trace TSV and the CSV, JSON and JSONL artifacts must be
// byte-identical to the unprofiled run's.
func TestProfileFlagsLeaveOutputsUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real CLIs")
	}
	// Each run works in its own directory with the same relative paths,
	// so the paths echoed on stdout match too.
	run := func(bin string, profiled bool, args ...string) (dir, stdout string) {
		t.Helper()
		dir = t.TempDir()
		if profiled {
			args = append(args, "-cpuprofile", "cpu.out", "-memprofile", "mem.out")
		}
		cmd := exec.Command(bin, args...)
		cmd.Dir = dir
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s %s: %v", filepath.Base(bin), strings.Join(args, " "), err)
		}
		if profiled {
			for _, p := range []string{"cpu.out", "mem.out"} {
				if fi, err := os.Stat(filepath.Join(dir, p)); err != nil || fi.Size() == 0 {
					t.Fatalf("%s %s: profile %s not written (%v)", filepath.Base(bin), strings.Join(args, " "), p, err)
				}
			}
		}
		return dir, string(out)
	}
	sameFile := func(a, b, rel string) {
		t.Helper()
		x, err := os.ReadFile(filepath.Join(a, rel))
		if err != nil {
			t.Fatal(err)
		}
		y, err := os.ReadFile(filepath.Join(b, rel))
		if err != nil {
			t.Fatal(err)
		}
		if len(x) == 0 || !bytes.Equal(x, y) {
			t.Fatalf("%s differs with profiling on (%d vs %d bytes)", rel, len(x), len(y))
		}
	}

	sim := buildBinary(t, "./cmd/vdtnsim")
	simArgs := []string{"-duration", "1", "-policy", "lifetime", "-trace", "run.tsv"}
	plainDir, plain := run(sim, false, simArgs...)
	profDir, prof := run(sim, true, simArgs...)
	if plain != prof {
		t.Fatalf("vdtnsim stdout differs with profiling on:\n%s\nvs\n%s", plain, prof)
	}
	sameFile(plainDir, profDir, "run.tsv")

	exp := buildBinary(t, "./cmd/experiments")
	expArgs := []string{"-figure", "fig5", "-scale", "0.05", "-seeds", "1", "-out", "out", "-out-jsonl", "jsonl"}
	plainDir, plain = run(exp, false, expArgs...)
	profDir, prof = run(exp, true, expArgs...)
	// The "(n/n runs in <wall time>)" line is the one line that varies
	// between any two runs.
	stable := func(s string) string {
		var keep []string
		for _, l := range strings.Split(s, "\n") {
			if !strings.Contains(l, " runs in ") {
				keep = append(keep, l)
			}
		}
		return strings.Join(keep, "\n")
	}
	if stable(plain) != stable(prof) {
		t.Fatalf("experiments stdout differs with profiling on:\n%s\nvs\n%s", plain, prof)
	}
	for _, rel := range []string{"out/fig5.csv", "out/fig5.json", "jsonl/fig5.jsonl"} {
		sameFile(plainDir, profDir, rel)
	}
}
