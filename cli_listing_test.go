package vdtn_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIListingGolden pins the stdout of the CLI listings that read the
// sweep-axis and scenario vocabularies: experiments -list-metrics (every
// metric, then every axis with its label and whether it moves contacts),
// and vdtnsim -dump-config with all nine scalar flags set, once over the
// paper defaults and once over a -config file whose values they override.
func TestCLIListingGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real CLIs")
	}
	experiments := buildBinary(t, "./cmd/experiments")
	vdtnsim := buildBinary(t, "./cmd/vdtnsim")
	flags := []string{
		"-ttl", "45.5", "-vehicles", "33", "-relays", "2", "-buf", "37.5", "-relaybuf", "210",
		"-rate", "2.5", "-range", "42", "-copies", "7", "-warmup", "12",
	}
	for _, c := range []struct {
		golden string
		bin    string
		args   []string
	}{
		{"cli_list_metrics.txt", experiments, []string{"-list-metrics"}},
		{"cli_dump_config_flags.txt", vdtnsim, append([]string{"-dump-config"}, flags...)},
		{"cli_dump_config_file_flags.txt", vdtnsim,
			append([]string{"-dump-config", "-config", filepath.Join("testdata", "cli_listing_scenario.json")}, flags...)},
	} {
		out, err := exec.Command(c.bin, c.args...).Output()
		if err != nil {
			t.Fatalf("%s %s: %v", filepath.Base(c.bin), strings.Join(c.args, " "), err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != string(want) {
			t.Errorf("stdout differs from testdata/%s:\ngot:\n%s\nwant:\n%s", c.golden, out, want)
		}
	}
}
