package service

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"vdtn/internal/experiments"
)

// FuzzSubmitBody is the POST /v1/jobs decoder's robustness target. For
// arbitrary bytes decodeSubmitBody must never panic, and every body whose
// spec loads must survive a round trip: the loaded spec, re-emitted by
// SpecJSON and wrapped with the options in an envelope, decodes to a spec
// that loads to the same sweep and to the same options. The corpus is the
// example sweep files, bare and wrapped with options.
func FuzzSubmitBody(f *testing.F) {
	files, err := filepath.Glob("../../examples/sweeps/*.json")
	if err != nil || len(files) == 0 {
		f.Fatalf("no example sweeps: %v", err)
	}
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add([]byte(`{"spec": ` + string(data) + `, "options": {"seeds": [1, 2], "scale": 0.1, "workers": 1, "metric": "delay", "cache_dir": "c"}}`))
	}
	f.Add([]byte(`{"spec": null, "options": {"seeds": []}}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		spec, opts := decodeSubmitBody(body)
		exp, err := experiments.LoadSpec(spec)
		if err != nil {
			return
		}
		canonical, err := experiments.SpecJSON(exp)
		if err != nil {
			t.Fatalf("accepted spec does not re-emit: %v", err)
		}
		wrapped, err := json.Marshal(submitEnvelope{Spec: canonical, Options: opts})
		if err != nil {
			t.Fatalf("accepted body does not re-encode: %v", err)
		}
		spec2, opts2 := decodeSubmitBody(wrapped)
		exp2, err := experiments.LoadSpec(spec2)
		if err != nil {
			t.Fatalf("re-encoded body does not load: %v\n%s", err, wrapped)
		}
		if again, err := experiments.SpecJSON(exp2); err != nil || !bytes.Equal(again, canonical) {
			t.Fatalf("round trip changed the spec (%v):\n%s\nthen:\n%s", err, canonical, again)
		}
		// omitempty drops an empty seed list, so nil and empty are equal.
		if !slices.Equal(opts.Seeds, opts2.Seeds) || opts.Scale != opts2.Scale || opts.Workers != opts2.Workers ||
			opts.Metric != opts2.Metric || opts.CacheDir != opts2.CacheDir {
			t.Fatalf("round trip changed the options: %+v then %+v", opts, opts2)
		}
	})
}
