package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vdtn/internal/sim"
)

var pinSmoke = flag.Bool("pin", false, "rewrite the smoke pins in testdata/digests.json")

// TestSmoke runs every workload at smoke size, untraced and traced, and
// checks the report, the pinned digests and traced = untraced. It writes
// only under t.TempDir() unless -pin is given.
func TestSmoke(t *testing.T) {
	pins, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	fresh := map[string]map[string]string{}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			p := &plan{seed: 1, size: smokeSizes, dir: t.TempDir(), pins: pins[smokeSizes.name][w.name]}
			if len(p.pins) == 0 && !*pinSmoke {
				t.Errorf("no smoke pins for %s; run go test -run TestSmoke -args -pin", w.name)
			}
			plain := runChecked(t, w, p, endToEnd)
			fresh[w.name] = plain.digests

			p.traced, p.dir = true, t.TempDir()
			traced := runChecked(t, w, p, perLayer)
			if !reflect.DeepEqual(plain.digests, traced.digests) {
				t.Errorf("traced run digests %v, untraced %v", traced.digests, plain.digests)
			}
			ids := map[int]bool{}
			children := 0
			for _, s := range traced.spans {
				if s.Parent != 0 && !ids[s.Parent] {
					t.Errorf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
				}
				if s.Parent != 0 {
					children++
				}
				ids[s.ID] = true
			}
			if children == 0 {
				t.Error("traced run recorded no child spans")
			}
		})
	}
	if *pinSmoke {
		for name, d := range fresh {
			if err := writePins(filepath.Join("testdata", "digests.json"), smokeSizes.name, name, d); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// runChecked runs one plan and checks that it failed no op and that its
// report prints every metric of defs, finite, with its unit.
func runChecked(t *testing.T, w workload, p *plan, defs []metricDef) *outcome {
	t.Helper()
	out, err := runWorkload(w, p)
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 || out.attempted != smokeSizes.ops || out.passes != 1 {
		t.Fatalf("traced=%v: %d of %d ops failed: %v", p.traced, out.failed, out.attempted, out.failures)
	}
	values := out.endToEnd
	if p.traced {
		values = out.layers
	}
	for _, d := range defs {
		if v, ok := values[d.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("metric %s = %v, present %v", d.name, v, ok)
		}
	}
	var buf bytes.Buffer
	if err := report(&buf, w.name, p, out); err != nil {
		t.Fatal(err)
	}
	var lines []string
	for sc := bufio.NewScanner(&buf); sc.Scan(); {
		lines = append(lines, sc.Text())
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted != smokeSizes.ops || len(res.Metrics) != len(defs) {
		t.Errorf("result %+v", res)
	}
	for _, d := range defs {
		if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
			t.Errorf("JSON metric %s = %+v, want unit %s", d.name, m, d.unit)
		}
		prefix := w.name + " " + d.name + " "
		found := false
		for _, l := range lines {
			found = found || (strings.HasPrefix(l, prefix) && strings.HasSuffix(l, " "+d.unit))
		}
		if !found {
			t.Errorf("no %q line with unit %s", prefix, d.unit)
		}
	}
	return out
}

// TestInstrumentRefusesOtherRouters pins the wrap guard: MaxProp and
// PRoPHET read their peer's concrete router, so tracing them must fail
// instead of silently changing their behaviour.
func TestInstrumentRefusesOtherRouters(t *testing.T) {
	for _, proto := range []sim.ProtocolKind{sim.ProtoMaxProp, sim.ProtoPRoPHET, sim.ProtoDirectDelivery} {
		cfg := paperConfig(smokeSizes, proto, 1)
		if err := (&layerStats{}).instrument(&cfg); err == nil {
			t.Errorf("instrument(%v) succeeded, want an error", proto)
		}
	}
	for _, proto := range []sim.ProtocolKind{sim.ProtoEpidemic, sim.ProtoSprayAndWait} {
		cfg := paperConfig(smokeSizes, proto, 1)
		if err := (&layerStats{}).instrument(&cfg); err != nil {
			t.Errorf("instrument(%v): %v", proto, err)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps the root BENCHMARK.json and the
// definitions the benchmark reports from in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, code %s: %s", i, b.Workloads[i], w.name, w.why)
		}
	}
	for _, c := range []struct {
		json []def
		code []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("BENCHMARK.json lists %d metrics, the code %d", len(c.json), len(c.code))
			continue
		}
		for i, d := range c.code {
			if got := c.json[i]; got != (def{d.name, d.unit, d.better, d.bound}) {
				t.Errorf("metric %d: BENCHMARK.json %+v, code %+v", i, got, d)
			}
		}
	}
}
