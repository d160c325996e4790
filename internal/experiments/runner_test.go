package experiments

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"vdtn/internal/sim"
)

// mustRun executes the sweep through the Runner path (RunE) and renders
// its default table, failing the test on any error — the migration shim
// for the deleted panicking Run wrapper.
func mustRun(t *testing.T, exp Experiment, opt Options) Table {
	t.Helper()
	res, err := RunE(exp, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res.DefaultTable()
}

// gridExperiment is a tiny 2-axis grid: ttl_min × vehicles. The vehicles
// grid axis moves the contact process, so the contact cache must fork one
// trace per (vehicles value, seed).
func gridExperiment() Experiment {
	return Experiment{
		ID:     "tiny-grid",
		Title:  "grid harness test",
		Base:   tinyBase,
		Axis:   "ttl_min",
		Xs:     []float64{10, 20},
		Grid:   []GridAxis{{Axis: "vehicles", Values: []float64{6, 8}}},
		Metric: MetricDeliveryProb,
		Scenarios: []Scenario{
			{Name: "FIFO-FIFO", Protocol: sim.ProtoEpidemic, Policy: sim.PolicyFIFOFIFO},
			{Name: "Lifetime", Protocol: sim.ProtoEpidemic, Policy: sim.PolicyLifetime},
		},
	}
}

// recordingObserver captures every observer event for assertions.
type recordingObserver struct {
	mu       sync.Mutex
	started  []CellID
	finished []CellID
	errs     []error
	cache    []CacheEvent
	sweeps   int
	sweepErr error
	done     int
}

func (o *recordingObserver) SweepStarted(exp Experiment, opt Options, cells int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.sweeps++
}
func (o *recordingObserver) CellStarted(c CellID) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.started = append(o.started, c)
}
func (o *recordingObserver) CellFinished(c CellID, elapsed time.Duration, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.finished = append(o.finished, c)
	o.errs = append(o.errs, err)
}
func (o *recordingObserver) CacheEvent(ev CacheEvent) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.cache = append(o.cache, ev)
}
func (o *recordingObserver) SweepFinished(exp Experiment, elapsed time.Duration, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.done++
	o.sweepErr = err
}

// orderSink records delivery order and forwards to a MemorySink, to pin
// the in-order contract under a parallel worker pool.
type orderSink struct {
	mem   MemorySink
	order []CellResult
}

func (s *orderSink) Start(exp Experiment, opt Options) error { return s.mem.Start(exp, opt) }
func (s *orderSink) Cell(c CellResult) error {
	s.order = append(s.order, c)
	return s.mem.Cell(c)
}
func (s *orderSink) Finish(err error) error { return s.mem.Finish(err) }

// TestRunnerObserverLifecycle: every cell is bracketed by started and
// finished events, the sweep by exactly one started/finished pair, and
// cache events report the recording passes.
func TestRunnerObserverLifecycle(t *testing.T) {
	exp := tinyExperiment()
	obs := &recordingObserver{}
	var mem MemorySink
	r := Runner{
		Options:  Options{Seeds: []uint64{1, 2}, Workers: 4, ContactCache: &ContactCache{}},
		Observer: obs,
		Sink:     &mem,
	}
	if err := r.Run(context.Background(), exp); err != nil {
		t.Fatal(err)
	}
	cells := len(exp.Scenarios) * len(exp.Xs) * 2
	if obs.sweeps != 1 || obs.done != 1 || obs.sweepErr != nil {
		t.Fatalf("sweep events: started %d, finished %d, err %v", obs.sweeps, obs.done, obs.sweepErr)
	}
	if len(obs.started) != cells || len(obs.finished) != cells {
		t.Fatalf("cell events: %d started, %d finished, want %d", len(obs.started), len(obs.finished), cells)
	}
	for i, err := range obs.errs {
		if err != nil {
			t.Fatalf("cell %v finished with error %v", obs.finished[i], err)
		}
	}
	for _, c := range obs.finished {
		if c.Total != cells || c.Index < 0 || c.Index >= cells || c.Series == "" || c.Seed == 0 {
			t.Fatalf("malformed CellID %+v", c)
		}
	}
	// The sweep shares one trace per seed (ttl does not move contacts):
	// 2 recording passes, every other lookup a hit.
	var recorded, hits int
	for _, ev := range obs.cache {
		switch ev.Kind {
		case CacheRecorded:
			recorded++
			if ev.Elapsed <= 0 {
				t.Fatalf("recording event without timing: %+v", ev)
			}
		case CacheHit, CacheHitDisk:
			hits++
		}
		if ev.Fingerprint == "" {
			t.Fatalf("cache event without fingerprint: %+v", ev)
		}
	}
	if recorded != 2 {
		t.Fatalf("observer saw %d recording passes, want 2", recorded)
	}
	if hits == 0 {
		t.Fatal("observer saw no cache hits")
	}
}

// TestRunnerDeliversCellsInAggregationOrder: regardless of worker
// scheduling, the sink sees cells in (series, x, seed) order and the
// memory sink reproduces RunE exactly.
func TestRunnerDeliversCellsInAggregationOrder(t *testing.T) {
	exp := tinyExperiment()
	opt := Options{Seeds: []uint64{1, 2, 3}, Workers: 8}
	sink := &orderSink{}
	r := Runner{Options: opt, Sink: sink}
	if err := r.Run(context.Background(), exp); err != nil {
		t.Fatal(err)
	}
	want, err := RunE(exp, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sink.order, want.Cells) {
		t.Fatal("sink delivery order differs from aggregation order")
	}
	if !reflect.DeepEqual(sink.mem.Results().Cells, want.Cells) {
		t.Fatal("memory sink results differ from RunE")
	}
}

// TestGridSweepCells: a 2-axis grid runs the full cross-product, labels
// sub-series with the grid assignments, and forks the contact cache per
// mobility-moving grid value.
func TestGridSweepCells(t *testing.T) {
	exp := gridExperiment()
	cache := &ContactCache{}
	opt := Options{Seeds: []uint64{1, 2}, Workers: 4, ContactCache: cache}
	res, err := RunE(exp, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := len(exp.Scenarios) * exp.Combos() * len(exp.Xs) * 2
	if len(res.Cells) != want {
		t.Fatalf("grid sweep stored %d cells, want %d", len(res.Cells), want)
	}
	if !res.Complete() {
		t.Fatal("complete grid sweep reports incomplete")
	}
	// vehicles moves contacts: one trace per (vehicles value, seed).
	if cache.Len() != 2*2 {
		t.Fatalf("cache holds %d traces, want 4 (2 vehicle counts × 2 seeds)", cache.Len())
	}
	tbl := res.DefaultTable()
	if len(tbl.Series) != len(exp.Scenarios)*exp.Combos() {
		t.Fatalf("grid table has %d series, want %d", len(tbl.Series), len(exp.Scenarios)*exp.Combos())
	}
	for _, name := range []string{"FIFO-FIFO [vehicles=6]", "FIFO-FIFO [vehicles=8]", "Lifetime [vehicles=6]", "Lifetime [vehicles=8]"} {
		found := false
		for _, s := range tbl.Series {
			found = found || s.Name == name
		}
		if !found {
			t.Fatalf("grid table missing sub-series %q:\n%s", name, tbl.Render())
		}
	}
	// Every cell carries its grid coordinates.
	for _, c := range res.Cells {
		if len(c.Grid) != 1 || c.Grid[0].Axis != "vehicles" {
			t.Fatalf("cell missing grid coordinates: %+v", c.Grid)
		}
		if c.Result.Created == 0 {
			t.Fatal("grid cell stored an empty Result")
		}
	}
	// The artifact renders and carries the grid block.
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, wantStr := range []string{`"grid"`, `"vehicles"`, `[vehicles=6]`} {
		if !strings.Contains(string(data), wantStr) {
			t.Fatalf("grid artifact missing %q", wantStr)
		}
	}
}

// TestGridMatchesManualSingleAxisSweeps: each grid slice is bit-identical
// to the equivalent single-axis sweep with the grid value pinned as a
// fixed setting — the grid is pure enumeration, not new semantics.
func TestGridMatchesManualSingleAxisSweeps(t *testing.T) {
	exp := gridExperiment()
	opt := Options{Seeds: []uint64{1}}
	res, err := RunE(exp, opt)
	if err != nil {
		t.Fatal(err)
	}
	for ci, vehicles := range []float64{6, 8} {
		single := exp
		single.Grid = nil
		single.Set = append([]Setting{{Axis: "vehicles", Value: vehicles}}, exp.Set...)
		sres, err := RunE(single, opt)
		if err != nil {
			t.Fatal(err)
		}
		for si := range exp.Scenarios {
			for xi := range exp.Xs {
				got := res.at(si, ci, xi)
				wantCells := sres.at(si, 0, xi)
				if !reflect.DeepEqual(got[0].Result, wantCells[0].Result) {
					t.Fatalf("grid cell (series %d, vehicles=%v, x=%v) differs from pinned single-axis run",
						si, vehicles, exp.Xs[xi])
				}
			}
		}
	}
}

// TestRunnerCancellation: a sweep cancelled mid-flight returns ctx.Err(),
// and its sink holds only complete, valid cells forming a prefix of the
// aggregation order — bit-identical to the same cells of an
// uninterrupted run. Exercised with the disk-backed cache shared across
// concurrent cells (the -race configuration the issue calls for).
func TestRunnerCancellation(t *testing.T) {
	exp := tinyExperiment()
	dir := t.TempDir()
	full, err := RunE(exp, Options{Seeds: []uint64{1, 2},
		ContactCache: &ContactCache{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}

	// Cancel after the third finished cell: the traces are persisted
	// already, so cancellation lands mid-sweep while cells replay from
	// disk-served views shared across workers.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cache := &ContactCache{Dir: dir}
	defer cache.Close()
	obs := &cancelAfterN{cancel: cancel, after: 3}
	sink := &orderSink{}
	r := Runner{
		Options:  Options{Seeds: []uint64{1, 2}, Workers: 4, ContactCache: cache},
		Observer: obs,
		Sink:     sink,
	}
	err = r.Run(ctx, exp)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}
	got := sink.mem.Results()
	if got.Complete() {
		t.Fatal("cancelled sweep claims to be complete")
	}
	if len(got.Cells) >= len(full.Cells) {
		t.Fatalf("cancelled sweep delivered %d of %d cells", len(got.Cells), len(full.Cells))
	}
	// Prefix property: every delivered cell is complete and identical to
	// the uninterrupted run's cell at the same position.
	for i, c := range got.Cells {
		if c.Result.Created == 0 {
			t.Fatalf("cancelled sweep delivered an empty cell at %d", i)
		}
		if !reflect.DeepEqual(c, full.Cells[i]) {
			t.Fatalf("cancelled sweep's cell %d differs from the full run's", i)
		}
	}
	// Partial rendering stays valid: table and artifact render only the
	// delivered groups.
	tbl := got.DefaultTable()
	for _, s := range tbl.Series {
		if len(s.Cells) == 0 {
			t.Fatalf("partial table rendered an empty series %q", s.Name)
		}
	}
	if data, err := got.JSON(); err != nil {
		t.Fatal(err)
	} else if !strings.Contains(string(data), `"complete": false`) {
		t.Fatal("partial artifact not flagged incomplete")
	}
}

// cancelAfterN cancels the run's context after n finished cells.
type cancelAfterN struct {
	BaseObserver
	cancel context.CancelFunc
	after  int
	seen   int
}

func (o *cancelAfterN) CellFinished(CellID, time.Duration, error) {
	o.seen++
	if o.seen == o.after {
		o.cancel()
	}
}

// TestJSONLSinkStream: the JSONL stream carries a header, one line per
// cell in aggregation order, and a complete footer; two runs of the same
// sweep produce identical bytes (the golden gate's property).
func TestJSONLSinkStream(t *testing.T) {
	exp := tinyExperiment()
	opt := Options{Seeds: []uint64{1, 2}, Workers: 4}

	stream := func() []byte {
		var buf bytes.Buffer
		r := Runner{Options: opt, Sink: NewJSONLSink(&buf)}
		if err := r.Run(context.Background(), exp); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := stream(), stream()
	if !bytes.Equal(a, b) {
		t.Fatal("JSONL stream is not byte-stable across runs")
	}

	cells := len(exp.Scenarios) * len(exp.Xs) * len(opt.Seeds)
	sc := bufio.NewScanner(bytes.NewReader(a))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if len(lines) != cells+2 {
		t.Fatalf("stream has %d lines, want header + %d cells + footer", len(lines), cells)
	}
	var h jsonlHeader
	if err := json.Unmarshal([]byte(lines[0]), &h); err != nil {
		t.Fatalf("header: %v", err)
	}
	if h.Format != jsonlFormat || h.Experiment != exp.ID || h.Axis != "ttl_min" || len(h.Series) != 2 {
		t.Fatalf("bad header %+v", h)
	}
	for i, line := range lines[1 : cells+1] {
		var c jsonlCell
		if err := json.Unmarshal([]byte(line), &c); err != nil {
			t.Fatalf("cell line %d: %v", i, err)
		}
		if c.Result.Created == 0 {
			t.Fatalf("cell line %d carries an empty Result", i)
		}
	}
	var f jsonlFooter
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &f); err != nil {
		t.Fatalf("footer: %v", err)
	}
	if !f.Complete || f.Cells != cells {
		t.Fatalf("footer %+v, want complete with %d cells", f, cells)
	}
}

// TestJSONLSinkCancelledFooter: an interrupted sweep's stream holds the
// delivered prefix and a footer recording the interruption — never a
// silent truncation.
func TestJSONLSinkCancelledFooter(t *testing.T) {
	exp := tinyExperiment()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var buf bytes.Buffer
	r := Runner{
		Options:  Options{Seeds: []uint64{1, 2}, Workers: 2},
		Observer: &cancelAfterN{cancel: cancel, after: 2},
		Sink:     NewJSONLSink(&buf),
	}
	if err := r.Run(ctx, exp); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var f jsonlFooter
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &f); err != nil {
		t.Fatalf("footer: %v", err)
	}
	if f.Complete {
		t.Fatal("interrupted stream's footer claims completion")
	}
	if f.Error == "" || !strings.Contains(f.Error, "context canceled") {
		t.Fatalf("footer error = %q, want the cancellation reason", f.Error)
	}
	if f.Cells != len(lines)-2 {
		t.Fatalf("footer counts %d cells, stream has %d", f.Cells, len(lines)-2)
	}
}

// TestTeeSinkDuplicates: a tee delivers every event to all sinks.
func TestTeeSinkDuplicates(t *testing.T) {
	exp := tinyExperiment()
	opt := Options{Seeds: []uint64{1}}
	var mem MemorySink
	var buf bytes.Buffer
	r := Runner{Options: opt, Sink: TeeSink(&mem, NewJSONLSink(&buf))}
	if err := r.Run(context.Background(), exp); err != nil {
		t.Fatal(err)
	}
	if !mem.Results().Complete() {
		t.Fatal("tee starved the memory sink")
	}
	if lines := strings.Count(buf.String(), "\n"); lines != len(mem.Results().Cells)+2 {
		t.Fatalf("tee's JSONL leg has %d lines", lines)
	}
}

// TestSinkErrorAbortsSweep: a failing sink stops the sweep and surfaces
// its error.
func TestSinkErrorAbortsSweep(t *testing.T) {
	exp := tinyExperiment()
	r := Runner{
		Options: Options{Seeds: []uint64{1}},
		Sink:    failingSink{},
	}
	err := r.Run(context.Background(), exp)
	if err == nil || !strings.Contains(err.Error(), "sink exploded") {
		t.Fatalf("err = %v, want the sink's error", err)
	}
}

type failingSink struct{}

func (failingSink) Start(Experiment, Options) error { return nil }
func (failingSink) Cell(CellResult) error           { return errors.New("sink exploded") }
func (failingSink) Finish(error) error              { return nil }

// TestSpecLevelSeedsAndScale: spec files may declare their own seeds and
// scale; empty options inherit them, explicit options override them, and
// both round-trip through dump/reload.
func TestSpecLevelSeedsAndScale(t *testing.T) {
	spec := []byte(`{
		"name": "seeded",
		"duration_hours": 1, "vehicles": 8, "relays": 1,
		"vehicle_buffer_mb": 10, "relay_buffer_mb": 20,
		"sweep": {
			"axis": "ttl_min", "values": [10, 20],
			"seeds": [5, 6], "scale": 0.5
		}
	}`)
	exp, err := LoadSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(exp.Seeds, []uint64{5, 6}) || exp.Scale != 0.5 {
		t.Fatalf("spec defaults not loaded: seeds %v scale %v", exp.Seeds, exp.Scale)
	}

	res, err := RunE(exp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Options.Seeds, []uint64{5, 6}) || res.Options.Scale != 0.5 {
		t.Fatalf("spec defaults not applied: %+v", res.Options)
	}
	seeds := map[uint64]bool{}
	for _, c := range res.Cells {
		seeds[c.Seed] = true
	}
	if !seeds[5] || !seeds[6] || len(seeds) != 2 {
		t.Fatalf("cells ran seeds %v, want {5, 6}", seeds)
	}

	// Explicit options override the spec.
	res, err = RunE(exp, Options{Seeds: []uint64{9}, Scale: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Options.Seeds, []uint64{9}) || res.Options.Scale != 0.25 {
		t.Fatalf("explicit options did not override the spec: %+v", res.Options)
	}

	// Dump → reload keeps them.
	data, err := SpecJSON(exp)
	if err != nil {
		t.Fatal(err)
	}
	reloaded, err := LoadSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reloaded.Seeds, exp.Seeds) || reloaded.Scale != exp.Scale {
		t.Fatal("seeds/scale lost in dump → reload")
	}
}

// TestSpecSeedsValidation: malformed spec-level replication blocks fail
// at load, not mid-sweep.
func TestSpecSeedsValidation(t *testing.T) {
	for name, sweep := range map[string]string{
		"duplicate seeds": `{"axis": "ttl_min", "values": [10], "seeds": [3, 3]}`,
		"negative scale":  `{"axis": "ttl_min", "values": [10], "scale": -1}`,
		"unknown field":   `{"axis": "ttl_min", "values": [10], "sedes": [1]}`,
	} {
		spec := fmt.Sprintf(`{"name": "bad", "sweep": %s}`, sweep)
		if _, err := LoadSpec([]byte(spec)); err == nil {
			t.Fatalf("%s: spec loaded without error", name)
		}
	}
}

// TestGridSpecRoundTrip: the axes-list schema loads, validates, and
// round-trips through dump → reload bit-identically.
func TestGridSpecRoundTrip(t *testing.T) {
	spec := []byte(`{
		"name": "grid",
		"duration_hours": 1, "vehicles": 8, "relays": 1,
		"vehicle_buffer_mb": 10, "relay_buffer_mb": 20,
		"sweep": {
			"axes": [
				{"axis": "ttl_min", "values": [10, 20]},
				{"axis": "copies", "values": [4, 8, 12]}
			]
		},
		"series": [{"name": "SnW", "protocol": "spraywait", "policy": "lifetime"}]
	}`)
	exp, err := LoadSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Axis != "ttl_min" || len(exp.Xs) != 2 {
		t.Fatalf("primary axis %q %v", exp.Axis, exp.Xs)
	}
	if len(exp.Grid) != 1 || exp.Grid[0].Axis != "copies" || exp.Combos() != 3 {
		t.Fatalf("grid %+v", exp.Grid)
	}

	dumped, err := SpecJSON(exp)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(dumped), `"axes"`) {
		t.Fatal("grid spec dumped without the axes list")
	}
	reloaded, err := LoadSpec(dumped)
	if err != nil {
		t.Fatal(err)
	}
	redumped, err := SpecJSON(reloaded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dumped, redumped) {
		t.Fatalf("grid spec does not round-trip:\n%s\nvs\n%s", dumped, redumped)
	}

	// Ambiguous axis declarations are rejected.
	bad := []byte(`{"name": "bad", "sweep": {
		"axis": "ttl_min", "values": [10],
		"axes": [{"axis": "copies", "values": [4]}]
	}}`)
	if _, err := LoadSpec(bad); err == nil || !strings.Contains(err.Error(), "exclusive") {
		t.Fatalf("ambiguous spec loaded: %v", err)
	}

	// Duplicate grid axes are rejected.
	dup := []byte(`{"name": "dup", "sweep": {
		"axes": [{"axis": "ttl_min", "values": [10]}, {"axis": "ttl_min", "values": [20]}]
	}}`)
	if _, err := LoadSpec(dup); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("duplicate-axis spec loaded: %v", err)
	}
}

// TestInvalidOptionsRejected: a negative or NaN scale, a negative worker
// count and a seed listed twice are errors from every entry point, before
// any cell runs or the sink starts, instead of silently falling back to a
// default or running one replication twice.
func TestInvalidOptionsRejected(t *testing.T) {
	fig5, ok := ByID("fig5")
	if !ok {
		t.Fatal("fig5 missing from the catalog")
	}
	for _, tc := range []struct {
		name string
		opt  Options
		want string
	}{
		{"negative scale", Options{Scale: -0.5, Seeds: []uint64{1, 2}}, "invalid scale"},
		{"NaN scale", Options{Scale: math.NaN()}, "invalid scale"},
		{"negative workers", Options{Workers: -1}, "negative worker count"},
		{"duplicate seeds", Options{Seeds: []uint64{1, 2, 1}}, "duplicate seed 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.opt.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want %q", err, tc.want)
			}
			if cfgs, err := CellConfigs(fig5, tc.opt); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CellConfigs = %d cells, %v; want %q", len(cfgs), err, tc.want)
			}
			if _, err := RunE(fig5, tc.opt); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RunE = %v, want %q", err, tc.want)
			}
			obs := &recordingObserver{}
			sink := &orderSink{}
			r := Runner{Options: tc.opt, Sink: sink, Observer: obs}
			if err := r.Run(context.Background(), fig5); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Runner.Run = %v, want %q", err, tc.want)
			}
			if sink.mem.Results() != nil || obs.sweeps != 0 {
				t.Fatal("rejected options reached the sink or observer")
			}
		})
	}
}
