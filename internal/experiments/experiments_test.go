package experiments

import (
	"strings"
	"testing"

	"vdtn/internal/roadmap"
	"vdtn/internal/scenario"
	"vdtn/internal/sim"
	"vdtn/internal/units"
)

// tinyBase returns a very small scenario so harness tests stay fast.
func tinyBase() sim.Config {
	c := sim.DefaultConfig()
	c.Duration = units.Minutes(40)
	c.Map = roadmap.Grid(5, 5, 250)
	c.Vehicles = 8
	c.Relays = 1
	c.VehicleBuffer = units.MB(10)
	c.RelayBuffer = units.MB(20)
	c.TTL = units.Minutes(20)
	return c
}

func tinyExperiment() Experiment {
	return Experiment{
		ID:     "tiny",
		Title:  "harness test",
		Base:   tinyBase,
		Axis:   "ttl_min",
		Xs:     []float64{10, 20},
		Metric: MetricDeliveryProb,
		Scenarios: []Scenario{
			{Name: "FIFO-FIFO", Protocol: sim.ProtoEpidemic, Policy: sim.PolicyFIFOFIFO},
			{Name: "Lifetime", Protocol: sim.ProtoEpidemic, Policy: sim.PolicyLifetime},
		},
	}
}

func TestCatalogIntegrity(t *testing.T) {
	cat := Catalog()
	if len(cat) < 10 {
		t.Fatalf("catalog has %d experiments, want the 6 figures + 4 ablations", len(cat))
	}
	seen := map[string]bool{}
	for _, e := range cat {
		if e.ID == "" || e.Title == "" {
			t.Fatalf("experiment %+v missing identification", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		if err := e.validate(); err != nil {
			t.Fatalf("experiment %s invalid: %v", e.ID, err)
		}
		if _, ok := scenario.AxisByName(e.Axis); !ok {
			t.Fatalf("experiment %s sweeps unknown axis %q", e.ID, e.Axis)
		}
	}
	for _, id := range []string{"fig4", "fig5", "fig6", "fig7", "fig8", "fig9"} {
		if !seen[id] {
			t.Fatalf("catalog missing paper figure %s", id)
		}
	}
}

func TestPaperFiguresUsePaperTTLs(t *testing.T) {
	want := []float64{60, 90, 120, 150, 180}
	for _, id := range []string{"fig4", "fig5", "fig6", "fig7", "fig8", "fig9"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		if e.Axis != "ttl_min" {
			t.Fatalf("%s sweeps axis %q, want ttl_min", id, e.Axis)
		}
		if len(e.Xs) != len(want) {
			t.Fatalf("%s sweeps %v, want %v", id, e.Xs, want)
		}
		for i := range want {
			if e.Xs[i] != want[i] {
				t.Fatalf("%s sweeps %v, want %v", id, e.Xs, want)
			}
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig4"); !ok {
		t.Fatal("fig4 not found")
	}
	if _, ok := ByID("nonsense"); ok {
		t.Fatal("found nonexistent experiment")
	}
	ids := IDs()
	if len(ids) != len(Catalog()) {
		t.Fatal("IDs() length mismatch")
	}
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatal("IDs() not sorted")
		}
	}
}

func TestMetricValues(t *testing.T) {
	r := sim.Result{}
	r.AvgDelay = 600
	r.DeliveryProbability = 0.5
	r.OverheadRatio = 3
	r.MeanBufferOccupancy = 0.25
	r.TransfersCompleted = 7
	for m, want := range map[Metric]float64{
		MetricAvgDelayMin:     10,
		MetricDeliveryProb:    0.5,
		MetricOverhead:        3,
		MetricBufferOccupancy: 0.25,
		MetricTransfers:       7,
	} {
		got, err := m.Value(r)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if got != want {
			t.Fatalf("%s = %v, want %v", m, got, want)
		}
	}
}

// TestUnknownMetricIsErrorNotPanic pins the satellite fix: an unknown
// metric travels RunE's error path instead of panicking a worker.
func TestUnknownMetricIsErrorNotPanic(t *testing.T) {
	if _, err := Metric("nonsense").Value(sim.Result{}); err == nil {
		t.Fatal("unknown metric extracted a value")
	}
	exp := tinyExperiment()
	exp.Metric = "nonsense"
	if _, err := RunE(exp, Options{}); err == nil || !strings.Contains(err.Error(), "nonsense") {
		t.Fatalf("RunE error = %v, want unknown-metric", err)
	}
	res, err := RunE(tinyExperiment(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Table("nonsense"); err == nil {
		t.Fatal("Table rendered an unknown metric")
	}
}

// TestUnknownAxisIsError: a bad axis name is rejected before any cell
// runs, and settings with bad axes surface through the cell error path.
func TestUnknownAxisIsError(t *testing.T) {
	exp := tinyExperiment()
	exp.Axis = "warp_factor"
	if _, err := RunE(exp, Options{}); err == nil || !strings.Contains(err.Error(), "warp_factor") {
		t.Fatalf("RunE error = %v, want unknown-axis", err)
	}
	exp = tinyExperiment()
	exp.Scenarios[0].Set = []Setting{{Axis: "warp_factor", Value: 9}}
	_, err := RunE(exp, Options{})
	if err == nil || !strings.Contains(err.Error(), "warp_factor") || !strings.Contains(err.Error(), "series") {
		t.Fatalf("RunE error = %v, want unknown-axis with cell coordinates", err)
	}
}

func TestRunAggregates(t *testing.T) {
	tbl := mustRun(t, tinyExperiment(), Options{
		Seeds: []uint64{1, 2, 3},
	})
	if len(tbl.Series) != 2 {
		t.Fatalf("series count = %d", len(tbl.Series))
	}
	for _, s := range tbl.Series {
		if len(s.Cells) != 2 {
			t.Fatalf("series %s has %d cells", s.Name, len(s.Cells))
		}
		for _, c := range s.Cells {
			if c.Summary.N != 3 {
				t.Fatalf("cell aggregated %d runs, want 3", c.Summary.N)
			}
			if c.Summary.Mean < 0 || c.Summary.Mean > 1 {
				t.Fatalf("delivery probability %v out of range", c.Summary.Mean)
			}
		}
	}
}

// TestResultsKeepFullCells: every cell carries the complete sim.Result,
// and any metric view renders from the same finished sweep.
func TestResultsKeepFullCells(t *testing.T) {
	exp := tinyExperiment()
	opt := Options{Seeds: []uint64{1, 2}}
	res, err := RunE(exp, opt)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(exp.Scenarios) * len(exp.Xs) * 2; len(res.Cells) != want {
		t.Fatalf("stored %d cells, want %d", len(res.Cells), want)
	}
	for _, c := range res.Cells {
		if c.Result.Created == 0 {
			t.Fatalf("cell (%s, x=%v, seed %d) stored an empty Result", c.Series, c.X, c.Seed)
		}
		if c.Result.Seed != c.Seed {
			t.Fatalf("cell seed %d carries Result.Seed %d", c.Seed, c.Result.Seed)
		}
	}
	// Every known metric renders without re-running.
	for _, m := range Metrics() {
		tbl, err := res.Table(m)
		if err != nil {
			t.Fatalf("Table(%s): %v", m, err)
		}
		if len(tbl.Series) != 2 || len(tbl.Series[0].Cells) != 2 {
			t.Fatalf("Table(%s) shape wrong", m)
		}
	}
	// The transfer-count view is consistent with the stored results.
	tbl, err := res.Table(MetricTransfers)
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.Series[0].Cells[0].Summary.Mean; got <= 0 {
		t.Fatalf("transfer metric mean = %v, want > 0", got)
	}
}

// TestResultsJSONArtifact: the machine-readable artifact carries the full
// per-seed results and every metric's aggregate.
func TestResultsJSONArtifact(t *testing.T) {
	res, err := RunE(tinyExperiment(), Options{Seeds: []uint64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"experiment": "tiny"`,
		`"axis": "ttl_min"`,
		`"axis_label": "ttl(min)"`,
		`"metric": "delivery_prob"`,
		`"delivery_probability"`,
		`"transfers_completed"`,
		`"avg_delay_min"`,
		`"seed": 2`,
	} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("JSON artifact missing %q:\n%s", want, data)
		}
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	opts := func(workers int) Options {
		return Options{Seeds: []uint64{1, 2}, Workers: workers}
	}
	serial := mustRun(t, tinyExperiment(), opts(1))
	parallel := mustRun(t, tinyExperiment(), opts(8))
	for si := range serial.Series {
		for ci := range serial.Series[si].Cells {
			a := serial.Series[si].Cells[ci].Summary
			b := parallel.Series[si].Cells[ci].Summary
			if a != b {
				t.Fatalf("worker count changed results: %+v vs %+v", a, b)
			}
		}
	}
}

func TestRenderAndCSV(t *testing.T) {
	tbl := mustRun(t, tinyExperiment(), Options{Seeds: []uint64{1}})
	text := tbl.Render()
	for _, want := range []string{"tiny", "ttl(min)", "FIFO-FIFO", "Lifetime", "10", "20"} {
		if !strings.Contains(text, want) {
			t.Fatalf("Render() missing %q:\n%s", want, text)
		}
	}
	csv := tbl.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if lines[0] != "experiment,metric,x,series,mean,ci95,n" {
		t.Fatalf("CSV header = %q", lines[0])
	}
	// 2 series x 2 x-values = 4 data rows.
	if len(lines) != 5 {
		t.Fatalf("CSV has %d lines, want 5:\n%s", len(lines), csv)
	}
	for _, l := range lines[1:] {
		if !strings.HasPrefix(l, "tiny,delivery_prob,") {
			t.Fatalf("CSV row %q missing experiment id + metric", l)
		}
	}
}

func TestScaleShortensRuns(t *testing.T) {
	exp := tinyExperiment()
	exp.Xs = []float64{20}
	full := mustRun(t, exp, Options{Seeds: []uint64{1}})
	_ = full
	// Scale is applied to duration; a scaled run must still work and
	// produce fewer created messages, which we can only observe through
	// the metric staying in range here.
	scaled := mustRun(t, exp, Options{Seeds: []uint64{1}, Scale: 0.5})
	if got := scaled.Series[0].Cells[0].Summary.Mean; got < 0 || got > 1 {
		t.Fatalf("scaled run metric out of range: %v", got)
	}
	if !strings.Contains(scaled.Render(), "scaled run") {
		t.Fatal("Render does not flag scaled runs")
	}
}

func TestOptionsNormalization(t *testing.T) {
	o := Options{}.normalized()
	if len(o.Seeds) != 1 || o.Seeds[0] != 1 {
		t.Fatalf("default seeds = %v", o.Seeds)
	}
	if o.Workers < 1 {
		t.Fatalf("default workers = %d", o.Workers)
	}
	if o.Scale != 1 {
		t.Fatalf("default scale = %v", o.Scale)
	}
	// Base resolution: the experiment's own base, else the paper
	// defaults.
	exp := tinyExperiment()
	exp.Base = nil
	baseVehicles := func() int {
		t.Helper()
		cfgs, err := CellConfigs(exp, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return cfgs[0].Vehicles
	}
	if got := baseVehicles(); got != sim.DefaultConfig().Vehicles {
		t.Fatalf("default base vehicles = %d", got)
	}
	exp.Base = func() sim.Config { c := tinyBase(); c.Vehicles = 7; return c }
	if got := baseVehicles(); got != 7 {
		t.Fatalf("experiment base not used: vehicles = %d", got)
	}
}
