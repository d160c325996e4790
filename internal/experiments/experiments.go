// Package experiments defines and runs sweep experiments: the paper's
// evaluation figures, the DESIGN.md ablations, and any user-defined sweep
// expressed on the same vocabulary — a context-aware Runner over a
// (series × axis-values × seed) cell grid, pluggable result sinks, and
// table/CSV/JSON rendering of any metric view.
//
// Every experiment is a family of scenarios (series) swept over one named
// axis (message TTL for the paper's figures; link rate, buffer size, copy
// budget, fleet or relay count for the ablations — see scenario.Axes) or,
// for grid sweeps, over the cross-product of several (Experiment.Grid).
// Each (series, grid, x, seed) cell is one full simulation run; cells are
// independent, so the Runner fans them out over a worker pool, delivering
// finished cells to its ResultSink in deterministic aggregation order and
// reporting progress through its Observer. Cancelling the Runner's
// context stops in-flight cells at an event-loop checkpoint, so sinks
// only ever hold complete, valid cells. The complete sim.Result of every
// cell is kept (Results, or streamed via JSONLSink for sweeps too large
// for memory); per-cell replications aggregate into mean ± 95% CI under
// whichever metric a Table view selects.
//
// Experiments are data, not code: an Experiment is fully described by
// axis names, values and settings, so it round-trips through the scenario
// JSON schema (LoadSpec/Spec) and new sweeps ship as files instead of
// catalog edits.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"

	"vdtn/internal/scenario"
	"vdtn/internal/sim"
)

// Setting is one fixed, declarative config assignment: the named axis is
// applied with the value. Settings replace the opaque Apply/Mutate
// closures of the pre-spec harness, so a cell's full configuration is
// serializable and participates in scenario.ContactFingerprint.
type Setting struct {
	Axis  string  `json:"axis"`
	Value float64 `json:"value"`
}

// apply looks the axis up and writes the value into the config.
func (s Setting) apply(c *sim.Config) error {
	a, ok := scenario.AxisByName(s.Axis)
	if !ok {
		return fmt.Errorf("unknown axis %q (known: %v)", s.Axis, axisNames())
	}
	a.Apply(c, s.Value)
	return nil
}

func axisNames() []string {
	var names []string
	for _, a := range scenario.Axes() {
		names = append(names, a.Name)
	}
	return names
}

// Scenario is one series in an experiment.
type Scenario struct {
	// Name labels the series in tables ("FIFO-FIFO", "MaxProp", ...).
	Name string
	// Protocol and Policy select routing.
	Protocol sim.ProtocolKind
	Policy   sim.PolicyKind
	// Set holds per-series fixed axis settings, applied after the swept
	// value (the declarative successor of the old Mutate closure).
	Set []Setting
}

// GridAxis is one swept dimension of a multi-axis grid sweep: a named
// axis and its values, in plot order.
type GridAxis struct {
	Axis   string    `json:"axis"`
	Values []float64 `json:"values"`
}

// Experiment is one reproducible sweep: a figure, an ablation, or a
// user-defined spec.
type Experiment struct {
	// ID is the handle used by the CLI, specs and benchmarks ("fig4", ...).
	ID string
	// Title describes what the sweep shows.
	Title string
	// Axis names the primary swept parameter (scenario.AxisByName); its
	// label heads the x column of rendered tables.
	Axis string
	// Xs are the primary swept values, in plot order.
	Xs []float64
	// Grid holds the secondary axes of a multi-axis grid sweep. Cells are
	// the cross-product of Xs and every grid axis's values; tables render
	// one sub-series per (series, grid combination). Empty means a plain
	// single-axis sweep. Grid values apply to the config after the primary
	// value, so a mobility-moving grid axis forks the contact cache per
	// combination exactly like a mobility-moving primary axis does.
	Grid []GridAxis
	// Metric is the default reported metric; any other metric can be
	// rendered from the finished Results.
	Metric Metric
	// Seeds and Scale are spec-level defaults for the matching
	// Options fields, applied when the options leave them zero (spec files
	// carry them in the sweep block). Explicit ExperimentOptions always
	// win.
	Seeds []uint64
	Scale float64
	// Set holds experiment-wide fixed axis settings, applied to every
	// cell before the swept value (e.g. pinning ttl_min=120 in a non-TTL
	// ablation).
	Set []Setting
	// Scenarios are the series.
	Scenarios []Scenario
	// Base, when non-nil, supplies the scenario template for this
	// experiment (spec files carry their base scenario here). Nil falls
	// back to Options.BaseConfig, then sim.DefaultConfig.
	Base func() sim.Config

	// baseSpec preserves the scenario file a spec-loaded experiment came
	// from (sweep/series blocks cleared), so Spec re-emits the base
	// scenario fields and the dump → edit → reload workflow round-trips
	// losslessly. Nil for Go-defined experiments, whose base is either
	// the paper defaults or a code-supplied Base/Options.BaseConfig.
	baseSpec *scenario.File
}

// validate reports the first structural problem that would make every
// cell fail, so the runner rejects a malformed experiment before burning
// a sweep's wall clock on it.
func (e Experiment) validate() error {
	if len(e.Xs) == 0 {
		return fmt.Errorf("experiments: %s sweeps no values", e.ID)
	}
	if len(e.Scenarios) == 0 {
		return fmt.Errorf("experiments: %s has no series", e.ID)
	}
	if _, ok := scenario.AxisByName(e.Axis); !ok {
		return fmt.Errorf("experiments: %s: unknown axis %q (known: %v)", e.ID, e.Axis, axisNames())
	}
	seenAxes := map[string]bool{e.Axis: true}
	for _, g := range e.Grid {
		if _, ok := scenario.AxisByName(g.Axis); !ok {
			return fmt.Errorf("experiments: %s: unknown grid axis %q (known: %v)", e.ID, g.Axis, axisNames())
		}
		if seenAxes[g.Axis] {
			return fmt.Errorf("experiments: %s: axis %q swept twice", e.ID, g.Axis)
		}
		seenAxes[g.Axis] = true
		if len(g.Values) == 0 {
			return fmt.Errorf("experiments: %s: grid axis %q sweeps no values", e.ID, g.Axis)
		}
	}
	seenSeeds := map[uint64]bool{}
	for _, s := range e.Seeds {
		if seenSeeds[s] {
			return fmt.Errorf("experiments: %s: duplicate seed %d", e.ID, s)
		}
		seenSeeds[s] = true
	}
	if e.Scale < 0 {
		return fmt.Errorf("experiments: %s: negative scale %v", e.ID, e.Scale)
	}
	if err := e.Metric.valid(); err != nil {
		return fmt.Errorf("experiments: %s: %w", e.ID, err)
	}
	return nil
}

// Combos returns the number of secondary-axis value combinations — the
// factor the grid multiplies every (series, x, seed) count by. 1 for a
// single-axis sweep.
func (e Experiment) Combos() int {
	n := 1
	for _, g := range e.Grid {
		n *= len(g.Values)
	}
	return n
}

// comboValues decodes combination index ci into one value per grid axis,
// row-major with the first grid axis outermost.
func (e Experiment) comboValues(ci int) []float64 {
	if len(e.Grid) == 0 {
		return nil
	}
	vals := make([]float64, len(e.Grid))
	for i := len(e.Grid) - 1; i >= 0; i-- {
		n := len(e.Grid[i].Values)
		vals[i] = e.Grid[i].Values[ci%n]
		ci /= n
	}
	return vals
}

// comboSettings renders combination ci as declarative settings, the form
// cell configs and progress reports consume.
func (e Experiment) comboSettings(ci int) []Setting {
	vals := e.comboValues(ci)
	set := make([]Setting, len(vals))
	for i, v := range vals {
		set[i] = Setting{Axis: e.Grid[i].Axis, Value: v}
	}
	return set
}

// comboLabel renders combination ci for table sub-series names and cell
// error coordinates ("ttl_min=120 copies=4").
func (e Experiment) comboLabel(ci int) string {
	vals := e.comboValues(ci)
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprintf("%s=%s", e.Grid[i].Axis, trimFloat(v))
	}
	return strings.Join(parts, " ")
}

// seriesName labels the (series, combination) line: the bare series name
// for single-axis sweeps (pinning the pre-grid table output), the name
// plus the combination's axis assignments for grids.
func (e Experiment) seriesName(si, ci int) string {
	name := e.Scenarios[si].Name
	if len(e.Grid) == 0 {
		return name
	}
	return fmt.Sprintf("%s [%s]", name, e.comboLabel(ci))
}

// Options controls a run of the harness.
type Options struct {
	// Seeds are the replication seeds; each cell runs once per seed.
	// Empty defaults to {1}.
	Seeds []uint64
	// Workers bounds parallelism; 0 defaults to GOMAXPROCS.
	Workers int
	// Scale multiplies the simulated duration (1 = the paper's 12 h).
	// Benchmarks use a smaller scale; the shape of the results is
	// preserved, absolute delays shrink with the horizon.
	Scale float64
	// BaseConfig supplies the scenario template; nil falls back to the
	// experiment's own Base (spec files), then sim.DefaultConfig (the
	// paper scenario).
	BaseConfig func() sim.Config
	// ContactCache, when non-nil, records each distinct (scenario, seed)
	// mobility process once and replays it for every cell that shares it,
	// instead of re-simulating vehicle motion and proximity scanning per
	// cell. Results are bit-identical to uncached runs. The cache may be
	// shared across experiments and is safe for concurrent use.
	ContactCache *ContactCache
}

func (o Options) normalized() Options {
	if len(o.Seeds) == 0 {
		o.Seeds = []uint64{1}
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Scale <= 0 {
		o.Scale = 1
	}
	return o
}

// normalizedFor resolves the run options against exp's spec-level
// defaults: explicit Options win, then the experiment's own Seeds/Scale
// (spec files carry them), then the global defaults ({1}, GOMAXPROCS, 1).
func (o Options) normalizedFor(exp Experiment) Options {
	if len(o.Seeds) == 0 {
		o.Seeds = append([]uint64(nil), exp.Seeds...)
	}
	if o.Scale <= 0 {
		o.Scale = exp.Scale
	}
	return o.normalized()
}

// base resolves the scenario template for exp: explicit Options override,
// then the experiment's own base (spec files), then the paper scenario.
func (o Options) base(exp Experiment) func() sim.Config {
	if o.BaseConfig != nil {
		return o.BaseConfig
	}
	if exp.Base != nil {
		return exp.Base
	}
	return sim.DefaultConfig
}

// job identifies one (series, grid combination, x, seed) cell of a sweep.
type job struct {
	scenario int
	combo    int
	xi       int
	seed     uint64
}

// cellJobs enumerates every cell of the sweep in aggregation order:
// series-major, then grid combination, then x, then seed. Single-axis
// sweeps have one combination, reproducing the pre-grid order exactly.
func cellJobs(exp Experiment, opt Options) []job {
	var jobs []job
	for si := range exp.Scenarios {
		for ci := 0; ci < exp.Combos(); ci++ {
			for xi := range exp.Xs {
				for _, seed := range opt.Seeds {
					jobs = append(jobs, job{si, ci, xi, seed})
				}
			}
		}
	}
	return jobs
}

// cellResult labels j's completed run with its sweep coordinates.
func cellResult(exp Experiment, j job, r sim.Result) CellResult {
	return CellResult{
		Series: exp.Scenarios[j.scenario].Name,
		X:      exp.Xs[j.xi],
		Grid:   exp.comboSettings(j.combo),
		Seed:   j.seed,
		Result: r,
	}
}

// cellConfig materializes one cell's full configuration: base template,
// scale, series protocol/policy, seed, the experiment-wide settings, the
// swept primary value, the grid combination's values, then the series
// settings. Unknown axes surface here, so the runner reports them with
// the failing cell's coordinates.
func cellConfig(exp Experiment, opt Options, j job) (sim.Config, error) {
	cfg := opt.base(exp)()
	cfg.Duration *= opt.Scale
	if cfg.MessageGenEnd > 0 {
		cfg.MessageGenEnd *= opt.Scale
	}
	sc := exp.Scenarios[j.scenario]
	cfg.Protocol = sc.Protocol
	cfg.Policy = sc.Policy
	cfg.Seed = j.seed
	for _, s := range exp.Set {
		if err := s.apply(&cfg); err != nil {
			return sim.Config{}, err
		}
	}
	if err := (Setting{Axis: exp.Axis, Value: exp.Xs[j.xi]}).apply(&cfg); err != nil {
		return sim.Config{}, err
	}
	for _, s := range exp.comboSettings(j.combo) {
		if err := s.apply(&cfg); err != nil {
			return sim.Config{}, err
		}
	}
	for _, s := range sc.Set {
		if err := s.apply(&cfg); err != nil {
			return sim.Config{}, err
		}
	}
	return cfg, nil
}

// cellErrorf wraps a cell failure with its (series, grid, x, seed)
// coordinates, so one bad cell out of hundreds is findable.
func cellErrorf(exp Experiment, j job, err error) error {
	grid := ""
	if len(exp.Grid) > 0 {
		grid = fmt.Sprintf(", grid [%s]", exp.comboLabel(j.combo))
	}
	return fmt.Errorf("experiments: %s cell (series %q, x=%v%s, seed %d): %w",
		exp.ID, exp.Scenarios[j.scenario].Name, exp.Xs[j.xi], grid, j.seed, err)
}

// runCell executes one cell to completion (or cancellation) and returns
// its complete result. Panics out of the simulation stack are converted
// into errors, so a worker goroutine never kills the whole sweep — the
// cell is reported with its coordinates by the runner instead. Cache
// events for the cell's contact-trace lookup flow to note (may be nil).
func runCell(ctx context.Context, exp Experiment, opt Options, j job, note func(CacheEvent)) (res sim.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	cfg, err := cellConfig(exp, opt, j)
	if err != nil {
		return sim.Result{}, err
	}
	// The fingerprint is taken after the axis settings are applied, so
	// sweeps that move mobility inputs (fleet size, map) key their cells
	// correctly and only contact-identical cells share a trace. Source
	// hands back the trace's shared view: of the bytes a recording pass
	// just encoded or, for a trace persisted by an earlier run, of the
	// mapped file every cell (and process) replays from the page cache.
	if opt.ContactCache != nil && cacheable(cfg) {
		src, rerr := opt.ContactCache.sourceWith(ctx, cfg, note)
		if rerr != nil {
			return sim.Result{}, rerr
		}
		cfg.ReplaySource = src
	}
	w, nerr := sim.New(cfg)
	if nerr != nil {
		return sim.Result{}, nerr
	}
	return w.RunContext(ctx)
}

// CellConfigs returns the fully materialized configuration of every
// (series, grid, x, seed) cell of the sweep, in aggregation order — what
// ContactCache.Prewarm wants when pre-recording traces across several
// experiments before any of them runs.
func CellConfigs(exp Experiment, opt Options) ([]sim.Config, error) {
	opt = opt.normalizedFor(exp)
	jobs := cellJobs(exp, opt)
	cfgs := make([]sim.Config, len(jobs))
	for i, j := range jobs {
		cfg, err := cellConfig(exp, opt, j)
		if err != nil {
			return nil, cellErrorf(exp, j, err)
		}
		cfgs[i] = cfg
	}
	return cfgs, nil
}

// RunE executes the experiment under opt and stores every cell's complete
// sim.Result. It is the uncancellable convenience form of Runner.Run
// with a memory sink: cells run on a worker pool; the first failing cell
// (in aggregation order) aborts the sweep and is reported with its
// (series, grid, x, seed) coordinates. A structurally bad experiment
// (unknown axis or metric, empty sweep) is rejected before any cell runs.
// When opt.ContactCache is set, the distinct contact traces the sweep
// needs are recorded by a parallel prewarm pool running alongside the
// cell workers. Use a Runner directly for cancellation, progress
// observation, or streaming sinks.
func RunE(exp Experiment, opt Options) (*Results, error) {
	var mem MemorySink
	r := Runner{Options: opt, Sink: &mem}
	if err := r.Run(context.Background(), exp); err != nil {
		return nil, err
	}
	return mem.Results(), nil
}

// --- catalog ---------------------------------------------------------------

// paperTTLs are the TTL sweep points of every figure, in minutes.
var paperTTLs = []float64{60, 90, 120, 150, 180}

// ttl120 pins the ablations' message lifetime at the paper's central TTL.
var ttl120 = []Setting{{Axis: "ttl_min", Value: 120}}

// tableIPolicies are the paper's Table I series, applied to proto.
func tableIPolicies(proto sim.ProtocolKind) []Scenario {
	return []Scenario{
		{Name: "FIFO-FIFO", Protocol: proto, Policy: sim.PolicyFIFOFIFO},
		{Name: "Random-FIFO", Protocol: proto, Policy: sim.PolicyRandomFIFO},
		{Name: "LifetimeDESC-LifetimeASC", Protocol: proto, Policy: sim.PolicyLifetime},
	}
}

// protocolScenarios are the Figure 8/9 series: the paper's proposed policy
// on the simple replicators vs the self-contained protocols.
func protocolScenarios() []Scenario {
	return []Scenario{
		{Name: "Epidemic", Protocol: sim.ProtoEpidemic, Policy: sim.PolicyLifetime},
		{Name: "SprayAndWait", Protocol: sim.ProtoSprayAndWait, Policy: sim.PolicyLifetime},
		{Name: "MaxProp", Protocol: sim.ProtoMaxProp, Policy: sim.PolicyFIFOFIFO},
		{Name: "PRoPHET", Protocol: sim.ProtoPRoPHET, Policy: sim.PolicyFIFOFIFO},
	}
}

// Catalog returns every built-in experiment — the paper's six figures and
// the ablations DESIGN.md §5 calls out — expressed on the named axes, so
// each round-trips through the sweep spec schema unchanged (see Spec).
func Catalog() []Experiment {
	return []Experiment{
		{
			ID:        "fig4",
			Title:     "Message average delay, Epidemic routing (paper Fig. 4)",
			Axis:      "ttl_min",
			Xs:        paperTTLs,
			Metric:    MetricAvgDelayMin,
			Scenarios: tableIPolicies(sim.ProtoEpidemic),
		},
		{
			ID:        "fig5",
			Title:     "Message delivery probability, Epidemic routing (paper Fig. 5)",
			Axis:      "ttl_min",
			Xs:        paperTTLs,
			Metric:    MetricDeliveryProb,
			Scenarios: tableIPolicies(sim.ProtoEpidemic),
		},
		{
			ID:        "fig6",
			Title:     "Message average delay, Spray and Wait routing (paper Fig. 6)",
			Axis:      "ttl_min",
			Xs:        paperTTLs,
			Metric:    MetricAvgDelayMin,
			Scenarios: tableIPolicies(sim.ProtoSprayAndWait),
		},
		{
			ID:        "fig7",
			Title:     "Message delivery probability, Spray and Wait routing (paper Fig. 7)",
			Axis:      "ttl_min",
			Xs:        paperTTLs,
			Metric:    MetricDeliveryProb,
			Scenarios: tableIPolicies(sim.ProtoSprayAndWait),
		},
		{
			ID:        "fig8",
			Title:     "Delivery probability: Epidemic, SprayAndWait, MaxProp, PRoPHET (paper Fig. 8)",
			Axis:      "ttl_min",
			Xs:        paperTTLs,
			Metric:    MetricDeliveryProb,
			Scenarios: protocolScenarios(),
		},
		{
			ID:        "fig9",
			Title:     "Message average delay: Epidemic, SprayAndWait, MaxProp, PRoPHET (paper Fig. 9)",
			Axis:      "ttl_min",
			Xs:        paperTTLs,
			Metric:    MetricAvgDelayMin,
			Scenarios: protocolScenarios(),
		},
		{
			ID:     "ablation-rate",
			Title:  "Constrained link rate reinforces the policy impact (paper §III.C conjecture)",
			Axis:   "rate_mbit",
			Xs:     []float64{0.5, 1, 2, 4, 6},
			Metric: MetricAvgDelayMin,
			Set:    ttl120,
			Scenarios: []Scenario{
				{Name: "Epidemic/FIFO-FIFO", Protocol: sim.ProtoEpidemic, Policy: sim.PolicyFIFOFIFO},
				{Name: "Epidemic/Lifetime", Protocol: sim.ProtoEpidemic, Policy: sim.PolicyLifetime},
			},
		},
		{
			ID:     "ablation-buffer",
			Title:  "Buffer pressure and the dropping policy",
			Axis:   "buffer_mb",
			Xs:     []float64{10, 25, 50, 100, 200},
			Metric: MetricDeliveryProb,
			Set:    ttl120,
			Scenarios: []Scenario{
				{Name: "Epidemic/FIFO-FIFO", Protocol: sim.ProtoEpidemic, Policy: sim.PolicyFIFOFIFO},
				{Name: "Epidemic/Lifetime", Protocol: sim.ProtoEpidemic, Policy: sim.PolicyLifetime},
			},
		},
		{
			ID:     "ablation-copies",
			Title:  "Spray and Wait copy budget N (paper fixes N=12)",
			Axis:   "copies",
			Xs:     []float64{2, 4, 8, 12, 16, 24},
			Metric: MetricDeliveryProb,
			Set:    ttl120,
			Scenarios: []Scenario{
				{Name: "SprayAndWait/Lifetime", Protocol: sim.ProtoSprayAndWait, Policy: sim.PolicyLifetime},
			},
		},
		{
			ID:     "ablation-fleet",
			Title:  "Vehicle density: contact opportunities vs buffer contention",
			Axis:   "vehicles",
			Xs:     []float64{10, 20, 40, 60, 80},
			Metric: MetricDeliveryProb,
			Set:    ttl120,
			Scenarios: []Scenario{
				{Name: "Epidemic/Lifetime", Protocol: sim.ProtoEpidemic, Policy: sim.PolicyLifetime},
				{Name: "SprayAndWait/Lifetime", Protocol: sim.ProtoSprayAndWait, Policy: sim.PolicyLifetime},
			},
		},
		{
			ID:     "ext-policies",
			Title:  "Extended literature policies vs Table I (framework extension)",
			Axis:   "ttl_min",
			Xs:     []float64{60, 120, 180},
			Metric: MetricDeliveryProb,
			Scenarios: []Scenario{
				{Name: "FIFO-FIFO", Protocol: sim.ProtoEpidemic, Policy: sim.PolicyFIFOFIFO},
				{Name: "Lifetime", Protocol: sim.ProtoEpidemic, Policy: sim.PolicyLifetime},
				{Name: "SizeASC-SizeDESC", Protocol: sim.ProtoEpidemic, Policy: sim.PolicySize},
				{Name: "HopASC-MOFO", Protocol: sim.ProtoEpidemic, Policy: sim.PolicyHopMOFO},
				{Name: "FIFO-OldestAge", Protocol: sim.ProtoEpidemic, Policy: sim.PolicyFIFOOldestAge},
			},
		},
		{
			ID:     "ablation-relays",
			Title:  "Stationary relay nodes increase contact opportunities (paper Fig. 1 motivation)",
			Axis:   "relays",
			Xs:     []float64{0, 2, 5, 8, 10},
			Metric: MetricDeliveryProb,
			Set:    ttl120,
			Scenarios: []Scenario{
				{Name: "SprayAndWait/Lifetime", Protocol: sim.ProtoSprayAndWait, Policy: sim.PolicyLifetime},
			},
		},
	}
}

// ByID finds an experiment in the built-in catalog.
func ByID(id string) (Experiment, bool) {
	for _, e := range Catalog() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns the catalog ids, sorted.
func IDs() []string {
	var ids []string
	for _, e := range Catalog() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}
