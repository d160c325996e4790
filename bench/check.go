package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"

	"vdtn/internal/sim"
)

// resultDigest is the SHA-256 of r's JSON with the label cleared: a traced
// run builds its routers through Config.NewRouter, which renames the label
// "custom/…" without changing any other byte.
func resultDigest(r sim.Result) string {
	r.Label = ""
	b, err := json.Marshal(r)
	if err != nil {
		// A Result holds only numbers and strings; NaN is the one way to
		// fail, and the digest of the error text still fails every pin.
		return "unmarshalable: " + err.Error()
	}
	return sha(b)
}

// checkResult applies the invariants every run must satisfy, whatever its
// seed.
func checkResult(r sim.Result) error {
	switch {
	case r.Created <= 0:
		return fmt.Errorf("no messages created")
	case r.Delivered > r.Created:
		return fmt.Errorf("delivered %d > created %d", r.Delivered, r.Created)
	case r.DeliveryProbability != float64(r.Delivered)/float64(r.Created):
		return fmt.Errorf("delivery probability %v != %d/%d", r.DeliveryProbability, r.Delivered, r.Created)
	case r.TransfersCompleted+r.TransfersAborted > r.TransfersStarted:
		return fmt.Errorf("transfers completed %d + aborted %d > started %d",
			r.TransfersCompleted, r.TransfersAborted, r.TransfersStarted)
	}
	return nil
}

// checkStream checks that a JSONL sweep stream ends in a footer that
// reports a complete sweep of cells cells.
func checkStream(data []byte, cells int) error {
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if len(lines) != cells+2 {
		return fmt.Errorf("JSONL stream has %d lines, want header + %d cells + footer", len(lines), cells)
	}
	var footer struct {
		Cells    *int   `json:"cells"`
		Complete bool   `json:"complete"`
		Error    string `json:"error"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &footer); err != nil || footer.Cells == nil {
		return fmt.Errorf("JSONL stream has no footer: %q", lines[len(lines)-1])
	}
	if *footer.Cells != cells || !footer.Complete || footer.Error != "" {
		return fmt.Errorf("JSONL footer reports %d cells, complete=%v, error %q; want %d complete",
			*footer.Cells, footer.Complete, footer.Error, cells)
	}
	return nil
}

// pinFile maps size name → workload → sim seed → digest.
type pinFile map[string]map[string]map[string]string

//go:embed testdata/digests.json
var pinnedJSON []byte

func loadPins() (pinFile, error) {
	pins := pinFile{}
	if err := json.Unmarshal(pinnedJSON, &pins); err != nil {
		return nil, fmt.Errorf("testdata/digests.json: %w", err)
	}
	return pins, nil
}

// writePins replaces the pins of one (size, workload) pair in path.
func writePins(path, size, workload string, digests map[string]string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	pins := pinFile{}
	if err := json.Unmarshal(data, &pins); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if pins[size] == nil {
		pins[size] = map[string]map[string]string{}
	}
	pins[size][workload] = digests
	out, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

func seedKey(seed uint64) string { return strconv.FormatUint(seed, 10) }

// percentile interpolates linearly between the closest ranks of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		m := float64(k*(n+1)) / 4
		j := int(math.Floor(m))
		switch {
		case j < 1:
			j = 1
		case j > n-1:
			j = n - 1
		}
		return s[j-1] + (m-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(3)
}
