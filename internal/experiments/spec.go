package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"

	"vdtn/internal/scenario"
	"vdtn/internal/sim"
)

// LoadSpec parses an on-disk sweep spec — a scenario JSON file carrying
// "sweep" and "series" blocks — into a runnable Experiment. The file's
// scalar scenario fields become the experiment's base template (zero
// fields inherit the paper defaults), so one file fully describes a
// sweep: cmd/experiments -spec runs it with no code changes.
//
// Decoding is strict: a key outside the schema ("ttl_mins" for
// "ttl_min") is an error, not a silently ignored field that would leave
// the sweep running on paper defaults — the same fail-fast stance as the
// axis and metric name checks.
func LoadSpec(data []byte) (Experiment, error) {
	var f scenario.File
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return Experiment{}, fmt.Errorf("experiments: spec: %w", err)
	}
	return FromSpec(f)
}

// FromSpec materializes an Experiment from a decoded spec file. The base
// scenario and the sweep structure (axis, values, metric, settings,
// series) are validated here, so a malformed spec fails at load, not
// mid-sweep.
func FromSpec(f scenario.File) (Experiment, error) {
	if f.Sweep == nil {
		return Experiment{}, fmt.Errorf("experiments: spec has no sweep block")
	}
	sw := *f.Sweep
	id := sw.ID
	if id == "" {
		id = f.Name
	}
	if id == "" {
		return Experiment{}, fmt.Errorf("experiments: spec needs an id (sweep.id or name)")
	}
	base, err := f.Config()
	if err != nil {
		return Experiment{}, fmt.Errorf("experiments: spec %s: base scenario: %w", id, err)
	}

	baseFile := f
	baseFile.Sweep, baseFile.Series = nil, nil
	exp := Experiment{
		ID:       id,
		Title:    sw.Title,
		Axis:     sw.Axis,
		Xs:       append([]float64(nil), sw.Values...),
		Metric:   Metric(sw.Metric),
		Seeds:    append([]uint64(nil), sw.Seeds...),
		Scale:    sw.Scale,
		Base:     func() sim.Config { return base },
		baseSpec: &baseFile,
	}
	if len(sw.Axes) > 0 {
		// Grid form: the axes list replaces axis/values entirely — a spec
		// carrying both is ambiguous about which sweeps first and is
		// rejected rather than guessed at.
		if sw.Axis != "" || len(sw.Values) > 0 {
			return Experiment{}, fmt.Errorf("experiments: spec %s: sweep.axes is exclusive with sweep.axis/values", id)
		}
		exp.Axis = sw.Axes[0].Axis
		exp.Xs = append([]float64(nil), sw.Axes[0].Values...)
		for _, g := range sw.Axes[1:] {
			exp.Grid = append(exp.Grid, GridAxis{Axis: g.Axis, Values: append([]float64(nil), g.Values...)})
		}
	}
	if sw.Scale < 0 {
		return Experiment{}, fmt.Errorf("experiments: spec %s: negative sweep scale %v", id, sw.Scale)
	}
	if exp.Title == "" {
		exp.Title = id
	}
	if exp.Metric == "" {
		exp.Metric = MetricDeliveryProb
	}
	if exp.Set, err = settingsFromMap(sw.Set); err != nil {
		return Experiment{}, fmt.Errorf("experiments: spec %s: sweep settings: %w", id, err)
	}

	if len(f.Series) == 0 {
		// No explicit series: one line using the base scenario's routing.
		name := f.Name
		if name == "" {
			name = fmt.Sprintf("%s/%s", base.Protocol, base.Policy)
		}
		exp.Scenarios = []Scenario{{Name: name, Protocol: base.Protocol, Policy: base.Policy}}
	}
	seen := map[string]bool{}
	for i, ss := range f.Series {
		sc := Scenario{Name: ss.Name, Protocol: base.Protocol, Policy: base.Policy}
		if ss.Protocol != "" {
			p, ok := sim.ParseProtocol(ss.Protocol)
			if !ok {
				return Experiment{}, fmt.Errorf("experiments: spec %s: series %d: unknown protocol %q", id, i, ss.Protocol)
			}
			sc.Protocol = p
		}
		if ss.Policy != "" {
			p, ok := sim.ParsePolicy(ss.Policy)
			if !ok {
				return Experiment{}, fmt.Errorf("experiments: spec %s: series %d: unknown policy %q", id, i, ss.Policy)
			}
			sc.Policy = p
		}
		if sc.Name == "" {
			sc.Name = fmt.Sprintf("%s/%s", sc.Protocol, sc.Policy)
		}
		if seen[sc.Name] {
			return Experiment{}, fmt.Errorf("experiments: spec %s: duplicate series name %q", id, sc.Name)
		}
		seen[sc.Name] = true
		if sc.Set, err = settingsFromMap(ss.Set); err != nil {
			return Experiment{}, fmt.Errorf("experiments: spec %s: series %q settings: %w", id, sc.Name, err)
		}
		exp.Scenarios = append(exp.Scenarios, sc)
	}
	if err := exp.validate(); err != nil {
		return Experiment{}, err
	}
	return exp, nil
}

// settingsFromMap converts a spec's settings map into the deterministic
// slice form, validating every axis name. JSON objects carry no order, so
// settings apply in sorted axis-name order — the only reproducible
// choice; axes writing disjoint config fields (the common case) are
// order-independent anyway.
func settingsFromMap(m map[string]float64) ([]Setting, error) {
	if len(m) == 0 {
		return nil, nil
	}
	names := make([]string, 0, len(m))
	for name := range m {
		if _, ok := scenario.AxisByName(name); !ok {
			return nil, fmt.Errorf("unknown axis %q (known: %v)", name, axisNames())
		}
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]Setting, len(names))
	for i, name := range names {
		out[i] = Setting{Axis: name, Value: m[name]}
	}
	return out, nil
}

// settingsMap is the inverse of settingsFromMap, for spec export.
func settingsMap(set []Setting) map[string]float64 {
	if len(set) == 0 {
		return nil
	}
	m := make(map[string]float64, len(set))
	for _, s := range set {
		m[s.Axis] = s.Value
	}
	return m
}

// settingsSpecSafe reports whether a Go-defined settings slice survives
// the schema's map form: JSON objects are unordered, so a reloaded spec
// re-applies settings in sorted axis-name order, and a slice whose
// declared order materializes a different config (overlapping axes like
// buffer_mb + relay_buffer_mb in write-order) must be rejected at dump
// time rather than silently exported as a spec that runs a different
// experiment. Axes are pure writes of values derived only from the
// setting, so order sensitivity is base-independent and one comparison
// on the paper defaults decides it.
func settingsSpecSafe(set []Setting) error {
	if len(set) < 2 {
		return nil
	}
	declared := sim.DefaultConfig()
	for _, s := range set {
		if err := s.apply(&declared); err != nil {
			return err
		}
	}
	reloaded := sim.DefaultConfig()
	sorted, err := settingsFromMap(settingsMap(set))
	if err != nil {
		return err
	}
	for _, s := range sorted {
		if err := s.apply(&reloaded); err != nil {
			return err
		}
	}
	if !reflect.DeepEqual(declared, reloaded) {
		return fmt.Errorf("settings %v are order-dependent (overlapping axes) and cannot round-trip through the unordered spec schema; use non-overlapping axes", set)
	}
	return nil
}

// Spec renders an experiment back into the on-disk schema: the sweep
// structure (axis, values, metric, settings, series) is captured exactly.
// For a spec-loaded experiment the base scenario fields it was loaded
// with are re-emitted; for Go-defined experiments they are left zero,
// meaning the paper defaults. Both built-in figures and loaded specs
// therefore export as self-contained files (cmd/experiments -dump-spec)
// that reload bit-identically. A code-supplied Base closure is the one
// thing the schema cannot carry — such experiments dump with default
// base fields. Settings whose declared order materializes differently
// from the schema's sorted-name order (overlapping axes) are an error:
// emitting them would produce a spec that runs a different experiment.
func Spec(exp Experiment) (scenario.File, error) {
	if err := settingsSpecSafe(exp.Set); err != nil {
		return scenario.File{}, fmt.Errorf("experiments: %s: %w", exp.ID, err)
	}
	for _, sc := range exp.Scenarios {
		if err := settingsSpecSafe(sc.Set); err != nil {
			return scenario.File{}, fmt.Errorf("experiments: %s: series %q: %w", exp.ID, sc.Name, err)
		}
	}
	var f scenario.File
	if exp.baseSpec != nil {
		f = *exp.baseSpec
	}
	f.Sweep = &scenario.SweepSpec{
		ID:     exp.ID,
		Title:  exp.Title,
		Axis:   exp.Axis,
		Values: append([]float64(nil), exp.Xs...),
		Metric: string(exp.Metric),
		Set:    settingsMap(exp.Set),
		Seeds:  append([]uint64(nil), exp.Seeds...),
		Scale:  exp.Scale,
	}
	if len(exp.Grid) > 0 {
		// Grid sweeps export in the axes-list form, primary axis first —
		// the only schema shape that can carry them.
		f.Sweep.Axes = []scenario.GridAxisSpec{{Axis: exp.Axis, Values: append([]float64(nil), exp.Xs...)}}
		for _, g := range exp.Grid {
			f.Sweep.Axes = append(f.Sweep.Axes, scenario.GridAxisSpec{Axis: g.Axis, Values: append([]float64(nil), g.Values...)})
		}
		f.Sweep.Axis, f.Sweep.Values = "", nil
	}
	f.Series = nil
	for _, sc := range exp.Scenarios {
		f.Series = append(f.Series, scenario.SeriesSpec{
			Name:     sc.Name,
			Protocol: sc.Protocol.Key(),
			Policy:   sc.Policy.Key(),
			Set:      settingsMap(sc.Set),
		})
	}
	return f, nil
}

// SpecJSON renders an experiment as an indented spec file.
func SpecJSON(exp Experiment) ([]byte, error) {
	f, err := Spec(exp)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(f, "", "  ")
}

// Registry merges the built-in catalog with loaded user specs behind one
// id-addressed lookup, so CLI selection and output naming treat paper
// figures and file-defined sweeps uniformly. A user spec may shadow a
// built-in id — the dump-spec → edit → -spec workflow depends on it —
// but two user specs claiming one id is an error.
type Registry struct {
	order   []string
	byID    map[string]Experiment
	builtin map[string]bool
}

// NewRegistry returns a registry preloaded with the built-in catalog.
func NewRegistry() *Registry {
	r := &Registry{byID: map[string]Experiment{}, builtin: map[string]bool{}}
	for _, e := range Catalog() {
		r.order = append(r.order, e.ID)
		r.byID[e.ID] = e
		r.builtin[e.ID] = true
	}
	return r
}

// Add registers an experiment. A structurally invalid experiment is an
// error; so is colliding with an earlier user spec. Colliding with a
// built-in replaces it in place (a spec dumped from the catalog and
// edited runs under its own id).
func (r *Registry) Add(exp Experiment) error {
	if err := exp.validate(); err != nil {
		return err
	}
	if _, dup := r.byID[exp.ID]; dup {
		if !r.builtin[exp.ID] {
			return fmt.Errorf("experiments: spec id %q already registered; pick a different sweep id", exp.ID)
		}
		delete(r.builtin, exp.ID) // shadowed once; a second spec collides
		r.byID[exp.ID] = exp
		return nil
	}
	r.order = append(r.order, exp.ID)
	r.byID[exp.ID] = exp
	return nil
}

// AddSpec parses a spec file and registers it.
func (r *Registry) AddSpec(data []byte) (Experiment, error) {
	exp, err := LoadSpec(data)
	if err != nil {
		return Experiment{}, err
	}
	if err := r.Add(exp); err != nil {
		return Experiment{}, err
	}
	return exp, nil
}

// ByID finds a registered experiment.
func (r *Registry) ByID(id string) (Experiment, bool) {
	e, ok := r.byID[id]
	return e, ok
}

// Experiments returns every registered experiment in registration order:
// the built-in catalog first, then loaded specs.
func (r *Registry) Experiments() []Experiment {
	out := make([]Experiment, len(r.order))
	for i, id := range r.order {
		out[i] = r.byID[id]
	}
	return out
}
