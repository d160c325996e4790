package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vdtn/internal/scenario"
	"vdtn/internal/sim"
	"vdtn/internal/units"
)

// legacyApply reproduces the pre-refactor catalog's closure-based config
// mutations verbatim — the code the named axes replaced. The equivalence
// tests below pin that the declarative re-expression materializes
// byte-identical cell configs, which is what makes the tables
// bit-identical without re-running the paper's evaluation per test.
var legacyApply = map[string]func(c *sim.Config, x float64){
	"fig4":         func(c *sim.Config, x float64) { c.TTL = units.Minutes(x) },
	"fig5":         func(c *sim.Config, x float64) { c.TTL = units.Minutes(x) },
	"fig6":         func(c *sim.Config, x float64) { c.TTL = units.Minutes(x) },
	"fig7":         func(c *sim.Config, x float64) { c.TTL = units.Minutes(x) },
	"fig8":         func(c *sim.Config, x float64) { c.TTL = units.Minutes(x) },
	"fig9":         func(c *sim.Config, x float64) { c.TTL = units.Minutes(x) },
	"ext-policies": func(c *sim.Config, x float64) { c.TTL = units.Minutes(x) },
	"ablation-rate": func(c *sim.Config, x float64) {
		c.TTL = units.Minutes(120)
		c.Rate = units.Mbit(x)
	},
	"ablation-buffer": func(c *sim.Config, x float64) {
		c.TTL = units.Minutes(120)
		c.VehicleBuffer = units.MB(x)
		c.RelayBuffer = units.MB(5 * x)
	},
	"ablation-copies": func(c *sim.Config, x float64) {
		c.TTL = units.Minutes(120)
		c.SprayCopies = int(x)
	},
	"ablation-fleet": func(c *sim.Config, x float64) {
		c.TTL = units.Minutes(120)
		c.Vehicles = int(x)
	},
	"ablation-relays": func(c *sim.Config, x float64) {
		c.TTL = units.Minutes(120)
		c.Relays = int(x)
	},
}

// legacyCellConfigs materializes an experiment's cells exactly the way
// the pre-refactor harness did: base, scale, series routing, seed, then
// the experiment's Apply closure.
func legacyCellConfigs(exp Experiment, opt Options, apply func(c *sim.Config, x float64)) []sim.Config {
	opt = opt.normalized()
	var cfgs []sim.Config
	for si := range exp.Scenarios {
		for xi := range exp.Xs {
			for _, seed := range opt.Seeds {
				cfg := sim.DefaultConfig()
				if exp.Base != nil {
					cfg = exp.Base()
				}
				cfg.Duration *= opt.Scale
				cfg.Protocol = exp.Scenarios[si].Protocol
				cfg.Policy = exp.Scenarios[si].Policy
				cfg.Seed = seed
				apply(&cfg, exp.Xs[xi])
				cfgs = append(cfgs, cfg)
			}
		}
	}
	return cfgs
}

// TestCatalogEquivalentToLegacyClosures pins the tentpole's bit-identical
// guarantee: every built-in figure and ablation, re-expressed on named
// axes, materializes exactly the cell configs the closure-based catalog
// produced — for every (series, x, seed) cell, at scale. Identical
// configs drive identical (deterministic) runs, so the rendered tables
// are bit-identical too.
func TestCatalogEquivalentToLegacyClosures(t *testing.T) {
	opt := Options{Seeds: []uint64{1, 2}, Scale: 0.25}
	for _, exp := range Catalog() {
		apply, ok := legacyApply[exp.ID]
		if !ok {
			t.Errorf("%s: no legacy definition to compare against — add one to keep the equivalence pinned", exp.ID)
			continue
		}
		got, err := CellConfigs(exp, opt)
		if err != nil {
			t.Fatalf("%s: %v", exp.ID, err)
		}
		want := legacyCellConfigs(exp, opt, apply)
		if len(got) != len(want) {
			t.Fatalf("%s: %d cells, legacy %d", exp.ID, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s cell %d diverged from the legacy closure:\nnew:    %+v\nlegacy: %+v", exp.ID, i, got[i], want[i])
			}
		}
	}
}

// TestCatalogRunsBitIdenticalToLegacy runs one sweep both ways — new axes
// vs legacy closures — on a small scenario and compares the rendered
// tables byte for byte.
func TestCatalogRunsBitIdenticalToLegacy(t *testing.T) {
	exp, _ := ByID("ablation-rate")
	exp.Xs = []float64{1, 4}
	exp.Base = tinyBase
	opt := Options{Seeds: []uint64{1, 2}}

	res, err := RunE(exp, opt)
	if err != nil {
		t.Fatal(err)
	}
	newTable := res.DefaultTable().Render()

	// The legacy path: materialize with the closure, compare configs
	// before running (a run warms caches inside the shared road graph),
	// then run each legacy config directly and compare full results.
	legacy := legacyCellConfigs(exp, opt, legacyApply["ablation-rate"])
	newCfgs, err := CellConfigs(exp, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range legacy {
		if !reflect.DeepEqual(legacy[i], newCfgs[i]) {
			t.Fatalf("cell %d config diverged", i)
		}
	}
	for i := range legacy {
		w, err := sim.New(legacy[i])
		if err != nil {
			t.Fatal(err)
		}
		if r := w.Run(); !reflect.DeepEqual(r, res.Cells[i].Result) {
			t.Fatalf("cell %d result diverged from a direct legacy-config run", i)
		}
	}
	if !strings.Contains(newTable, "rate(Mbit/s)") {
		t.Fatalf("table lost the legacy x label:\n%s", newTable)
	}
}

// TestBuiltinFiguresPinnedFingerprint: the paper figures on the new axes
// still key their contact traces to the pinned default-scenario
// fingerprint — TTL is mobility-invariant, so every cell of every figure
// at seed 1 shares the one recorded trace.
func TestBuiltinFiguresPinnedFingerprint(t *testing.T) {
	const pinned = "7738a602549c75fc"
	for _, id := range []string{"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "ext-policies"} {
		exp, ok := ByID(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		cfgs, err := CellConfigs(exp, Options{Seeds: []uint64{1}})
		if err != nil {
			t.Fatal(err)
		}
		for i, cfg := range cfgs {
			if fp := sim.ContactFingerprint(cfg); fp != pinned {
				t.Fatalf("%s cell %d fingerprints to %s, want pinned %s", id, i, fp, pinned)
			}
		}
	}
	// Mobility-moving axes must fork: the fleet ablation's cells never
	// share the pinned key across x values.
	exp, _ := ByID("ablation-fleet")
	cfgs, err := CellConfigs(exp, Options{Seeds: []uint64{1}})
	if err != nil {
		t.Fatal(err)
	}
	fps := map[string]bool{}
	for _, cfg := range cfgs {
		fps[sim.ContactFingerprint(cfg)] = true
	}
	if len(fps) != len(exp.Xs) {
		t.Fatalf("vehicles sweep produced %d distinct fingerprints over %d x values", len(fps), len(exp.Xs))
	}
}

// TestSpecRoundTrip is the satellite's encode → decode → materialize
// check: a sweep spec written from a Go-defined experiment reloads into
// byte-identical cell configs, including fixed settings at both the sweep
// and the series level.
func TestSpecRoundTrip(t *testing.T) {
	orig := Experiment{
		ID:     "roundtrip",
		Title:  "round-trip sweep",
		Axis:   "rate_mbit",
		Xs:     []float64{0.5, 2, 6},
		Metric: MetricAvgDelayMin,
		Set:    []Setting{{Axis: "ttl_min", Value: 90}},
		Scenarios: []Scenario{
			{Name: "Epidemic/FIFO", Protocol: sim.ProtoEpidemic, Policy: sim.PolicyFIFOFIFO},
			{
				Name: "SnW/Lifetime, 24 copies", Protocol: sim.ProtoSprayAndWait, Policy: sim.PolicyLifetime,
				Set: []Setting{{Axis: "copies", Value: 24}},
			},
		},
	}
	data, err := SpecJSON(orig)
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := LoadSpec(data)
	if err != nil {
		t.Fatalf("reloading dumped spec: %v\n%s", err, data)
	}
	if reloaded.ID != orig.ID || reloaded.Title != orig.Title || reloaded.Axis != orig.Axis || reloaded.Metric != orig.Metric {
		t.Fatalf("identity lost in round trip: %+v", reloaded)
	}
	opt := Options{Seeds: []uint64{1, 2}}
	got, err := CellConfigs(reloaded, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := CellConfigs(orig, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("spec round trip changed the materialized cell configs")
	}
}

// TestLoadedSpecDumpKeepsBaseScenario: dumping a spec-loaded experiment
// re-emits the base scenario fields it was loaded with, so the dump →
// edit → reload workflow never silently reverts to the paper defaults.
func TestLoadedSpecDumpKeepsBaseScenario(t *testing.T) {
	src := `{
		"name": "short-run",
		"duration_hours": 1,
		"vehicles": 12,
		"rate_mbit": 2,
		"sweep": {"id": "short-run", "axis": "ttl_min", "values": [15, 30]},
		"series": [{"name": "epi", "protocol": "epidemic", "policy": "lifetime"}]
	}`
	exp, err := LoadSpec([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	dumped, err := SpecJSON(exp)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"duration_hours": 1`, `"vehicles": 12`, `"rate_mbit": 2`} {
		if !strings.Contains(string(dumped), want) {
			t.Fatalf("dump lost base field %s:\n%s", want, dumped)
		}
	}
	reloaded, err := LoadSpec(dumped)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CellConfigs(reloaded, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := CellConfigs(exp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("loaded-spec dump did not reload to identical cell configs")
	}
	if got[0].Duration != units.Hours(1) || got[0].Vehicles != 12 {
		t.Fatalf("base scenario lost in round trip: duration %v, vehicles %d", got[0].Duration, got[0].Vehicles)
	}
}

// TestBuiltinsDumpAndReloadBitIdentical: every catalog experiment
// round-trips through the spec schema into identical cell configs — the
// registry's merge of built-ins and user specs treats both uniformly.
func TestBuiltinsDumpAndReloadBitIdentical(t *testing.T) {
	opt := Options{Seeds: []uint64{1, 3}}
	for _, exp := range Catalog() {
		data, err := SpecJSON(exp)
		if err != nil {
			t.Fatalf("%s: %v", exp.ID, err)
		}
		reloaded, err := LoadSpec(data)
		if err != nil {
			t.Fatalf("%s: reload: %v", exp.ID, err)
		}
		got, err := CellConfigs(reloaded, opt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := CellConfigs(exp, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: dumped spec materializes different cell configs", exp.ID)
		}
	}
}

// TestSpecBaseScenarioFields: a spec's scalar scenario fields become the
// experiment's base template, overriding the paper defaults.
func TestSpecBaseScenarioFields(t *testing.T) {
	spec := `{
		"name": "small-fleet",
		"duration_hours": 2,
		"vehicles": 12,
		"ttl_min": 30,
		"sweep": {"id": "small", "axis": "ttl_min", "values": [15, 30], "metric": "delivery_prob"},
		"series": [
			{"name": "epidemic", "protocol": "epidemic", "policy": "lifetime"},
			{"name": "snw", "protocol": "spraywait", "policy": "lifetime"}
		]
	}`
	exp, err := LoadSpec([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	cfgs, err := CellConfigs(exp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 4 {
		t.Fatalf("materialized %d cells, want 4", len(cfgs))
	}
	for _, cfg := range cfgs {
		if cfg.Vehicles != 12 || cfg.Duration != units.Hours(2) {
			t.Fatalf("spec base not applied: vehicles %d, duration %v", cfg.Vehicles, cfg.Duration)
		}
	}
	if cfgs[0].TTL != units.Minutes(15) || cfgs[1].TTL != units.Minutes(30) {
		t.Fatalf("axis values not applied: %v, %v", cfgs[0].TTL, cfgs[1].TTL)
	}
	if cfgs[2].Protocol != sim.ProtoSprayAndWait {
		t.Fatalf("series protocol not applied: %v", cfgs[2].Protocol)
	}
}

// TestSpecBaseExplicitZeros: "relays": 0 and zero pause bounds in a
// spec's base reach every cell, instead of falling back to the paper's 5
// relays and 5–15 min pauses.
func TestSpecBaseExplicitZeros(t *testing.T) {
	spec := `{
		"relays": 0, "pause_lo_min": 0, "pause_hi_min": 0,
		"sweep": {"id": "norelays", "axis": "ttl_min", "values": [60, 120]}
	}`
	exp, err := LoadSpec([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	cfgs, err := CellConfigs(exp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		if cfg.Relays != 0 || cfg.PauseLo != 0 || cfg.PauseHi != 0 {
			t.Fatalf("cell %d: relays %d, pauses [%v, %v], want all 0", i, cfg.Relays, cfg.PauseLo, cfg.PauseHi)
		}
	}
}

// TestSpecValidation: malformed specs fail at load with a pointed error,
// never mid-sweep.
func TestSpecValidation(t *testing.T) {
	cases := map[string]string{
		"no sweep":          `{"name": "x"}`,
		"no id":             `{"sweep": {"axis": "ttl_min", "values": [1]}}`,
		"unknown axis":      `{"sweep": {"id": "x", "axis": "warp", "values": [1]}}`,
		"no values":         `{"sweep": {"id": "x", "axis": "ttl_min"}}`,
		"unknown metric":    `{"sweep": {"id": "x", "axis": "ttl_min", "values": [1], "metric": "vibes"}}`,
		"unknown set axis":  `{"sweep": {"id": "x", "axis": "ttl_min", "values": [1], "set": {"warp": 9}}}`,
		"unknown protocol":  `{"sweep": {"id": "x", "axis": "ttl_min", "values": [1]}, "series": [{"name": "a", "protocol": "pigeon"}]}`,
		"unknown policy":    `{"sweep": {"id": "x", "axis": "ttl_min", "values": [1]}, "series": [{"name": "a", "policy": "vibes"}]}`,
		"duplicate series":  `{"sweep": {"id": "x", "axis": "ttl_min", "values": [1]}, "series": [{"name": "a"}, {"name": "a"}]}`,
		"bad base scenario": `{"vehicles": 1, "sweep": {"id": "x", "axis": "ttl_min", "values": [1]}}`,
	}
	for name, spec := range cases {
		if _, err := LoadSpec([]byte(spec)); err == nil {
			t.Errorf("%s: spec loaded without error", name)
		}
	}
}

// TestSpecRejectsUnknownKeys: strict decoding catches typoed field names
// instead of silently running the sweep on paper defaults.
func TestSpecRejectsUnknownKeys(t *testing.T) {
	for name, spec := range map[string]string{
		"top-level typo": `{"ttl_mins": 45, "sweep": {"id": "x", "axis": "ttl_min", "values": [1]}}`,
		"sweep typo":     `{"sweep": {"id": "x", "axis": "ttl_min", "values": [1], "sets": {"ttl_min": 9}}}`,
		"series typo":    `{"sweep": {"id": "x", "axis": "ttl_min", "values": [1]}, "series": [{"name": "a", "protocl": "epidemic"}]}`,
	} {
		if _, err := LoadSpec([]byte(spec)); err == nil {
			t.Errorf("%s: spec with an unknown key loaded without error", name)
		}
	}
}

// TestSpecRejectsOrderDependentSettings: a Go-defined settings slice
// whose declared order materializes differently from the schema's
// sorted-name order must fail to dump — a spec that silently ran a
// different experiment would be worse than no spec.
func TestSpecRejectsOrderDependentSettings(t *testing.T) {
	exp := Experiment{
		ID: "overlap", Title: "overlap", Axis: "ttl_min", Xs: []float64{60}, Metric: MetricDeliveryProb,
		// Declared order: relay buffer set to 10 MB, then buffer_mb
		// overwrites it with 5×20 MB. Sorted order applies buffer_mb
		// first and relay_buffer_mb last — a different config.
		Set: []Setting{{Axis: "relay_buffer_mb", Value: 10}, {Axis: "buffer_mb", Value: 20}},
		Scenarios: []Scenario{
			{Name: "a", Protocol: sim.ProtoEpidemic, Policy: sim.PolicyFIFOFIFO},
		},
	}
	if _, err := SpecJSON(exp); err == nil || !strings.Contains(err.Error(), "order-dependent") {
		t.Fatalf("SpecJSON error = %v, want order-dependent settings rejection", err)
	}
	// The same overlap at the series level is rejected too.
	exp.Set = nil
	exp.Scenarios[0].Set = []Setting{{Axis: "relay_buffer_mb", Value: 10}, {Axis: "buffer_mb", Value: 20}}
	if _, err := SpecJSON(exp); err == nil {
		t.Fatal("series-level order-dependent settings dumped without error")
	}
	// Disjoint axes in any declared order stay dumpable.
	exp.Scenarios[0].Set = []Setting{{Axis: "ttl_min", Value: 90}, {Axis: "copies", Value: 8}}
	if _, err := SpecJSON(exp); err != nil {
		t.Fatalf("disjoint settings rejected: %v", err)
	}
}

// TestSpecDefaultSeries: a sweep with no series block gets one line from
// the base scenario's routing.
func TestSpecDefaultSeries(t *testing.T) {
	exp, err := LoadSpec([]byte(`{"protocol": "maxprop", "sweep": {"id": "solo", "axis": "ttl_min", "values": [30, 60]}}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.Scenarios) != 1 {
		t.Fatalf("series = %d, want 1", len(exp.Scenarios))
	}
	if exp.Scenarios[0].Protocol != sim.ProtoMaxProp {
		t.Fatalf("default series protocol = %v", exp.Scenarios[0].Protocol)
	}
	if exp.Metric != MetricDeliveryProb {
		t.Fatalf("default metric = %v", exp.Metric)
	}
}

// TestRegistryMergesBuiltinsAndSpecs: one id space for figures and user
// sweeps, collisions rejected.
func TestRegistryMergesBuiltinsAndSpecs(t *testing.T) {
	r := NewRegistry()
	if len(r.Experiments()) != len(Catalog()) {
		t.Fatalf("fresh registry holds %d, want %d", len(r.Experiments()), len(Catalog()))
	}
	if _, ok := r.ByID("fig5"); !ok {
		t.Fatal("fig5 missing from registry")
	}
	exp, err := r.AddSpec([]byte(`{"sweep": {"id": "mine", "axis": "vehicles", "values": [10, 20]}}`))
	if err != nil {
		t.Fatal(err)
	}
	if exp.ID != "mine" {
		t.Fatalf("loaded spec id = %q", exp.ID)
	}
	got, ok := r.ByID("mine")
	if !ok || got.Axis != "vehicles" {
		t.Fatalf("registered spec not retrievable: %+v ok=%v", got, ok)
	}
	all := r.Experiments()
	if all[len(all)-1].ID != "mine" {
		t.Fatal("specs not appended after built-ins")
	}
	// A user spec may shadow a built-in — the dump-spec → edit → -spec
	// workflow reloads figures under their own id.
	if _, err := r.AddSpec([]byte(`{"sweep": {"id": "fig5", "axis": "ttl_min", "values": [60]}}`)); err != nil {
		t.Fatalf("spec shadowing a built-in rejected: %v", err)
	}
	shadowed, _ := r.ByID("fig5")
	if len(shadowed.Xs) != 1 || shadowed.Xs[0] != 60 {
		t.Fatalf("shadowing spec not served: %+v", shadowed.Xs)
	}
	if got := len(r.Experiments()); got != len(Catalog())+1 {
		t.Fatalf("shadowing changed the experiment count: %d", got)
	}
	// But two user specs claiming one id collide.
	if _, err := r.AddSpec([]byte(`{"sweep": {"id": "fig5", "axis": "ttl_min", "values": [90]}}`)); err == nil {
		t.Fatal("registry accepted two user specs with one id")
	}
	if _, err := r.AddSpec([]byte(`{"sweep": {"id": "mine", "axis": "ttl_min", "values": [90]}}`)); err == nil {
		t.Fatal("registry accepted two user specs with one id")
	}
}

// TestSpecFileIsValidScenarioFile: the sweep blocks ride on the existing
// scenario schema — a spec file still loads as a plain scenario (its base
// config) through scenario.Load, so older tools ignore the sweep.
func TestSpecFileIsValidScenarioFile(t *testing.T) {
	exp, _ := ByID("fig5")
	data, err := SpecJSON(exp)
	if err != nil {
		t.Fatal(err)
	}
	var f scenario.File
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	cfg, err := f.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Vehicles != sim.DefaultConfig().Vehicles {
		t.Fatalf("base config vehicles = %d", cfg.Vehicles)
	}
}

// FuzzLoadSpec is the spec loader's robustness target. For arbitrary bytes
// LoadSpec must never panic, and every spec it accepts must survive the
// dump → reload workflow: SpecJSON re-emits it and LoadSpec reloads that
// to an equal Experiment. The corpus is the example sweep files, the
// dumped spec of every catalog experiment, and empty lists the dump omits.
func FuzzLoadSpec(f *testing.F) {
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
	}
	for _, exp := range Catalog() {
		data, err := SpecJSON(exp)
		if err != nil {
			f.Fatalf("%s: %v", exp.ID, err)
		}
		f.Add(data)
	}
	for _, field := range []string{"contacts", "script"} {
		f.Add([]byte(`{"` + field + `": [], "sweep": {"id": "x", "axis": "ttl_min", "values": [1]}}`))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		exp, err := LoadSpec(data)
		if err != nil {
			return
		}
		dumped, err := SpecJSON(exp)
		if err != nil {
			t.Fatalf("accepted spec does not re-emit: %v", err)
		}
		reloaded, err := LoadSpec(dumped)
		if err != nil {
			t.Fatalf("re-emitted spec does not reload: %v\n%s", err, dumped)
		}
		if !reflect.DeepEqual(exp.Base(), reloaded.Base()) {
			t.Fatalf("round trip changed the base config\n%s", dumped)
		}
		if again, err := SpecJSON(reloaded); err != nil || !bytes.Equal(again, dumped) {
			t.Fatalf("reloaded spec re-emits differently (%v):\n%s\nthen:\n%s", err, dumped, again)
		}
		// Base is a closure and baseSpec may differ only in empty lists the
		// dump omits; both are covered above.
		exp.Base, exp.baseSpec, reloaded.Base, reloaded.baseSpec = nil, nil, nil, nil
		if !reflect.DeepEqual(exp, reloaded) {
			t.Fatalf("round trip changed the sweep:\n%+v\nthen:\n%+v", exp, reloaded)
		}
	})
}
