package scenario

import (
	"fmt"
	"sort"
	"sync"

	"vdtn/internal/sim"
	"vdtn/internal/units"
)

// Axis is a named, serializable swept parameter: the declarative
// replacement for the closure-based config mutations the experiment
// harness used to hardwire per figure. An axis knows how to write one
// scalar value into a sim.Config and whether doing so can move the
// scenario's contact process.
//
// Because an axis is applied to the config *before* ContactFingerprint is
// taken, mobility-invariant axes (TTL, buffers, link rate, copy budget)
// leave the fingerprint unchanged — every cell of such a sweep shares one
// cached contact trace — while mobility-affecting axes (vehicles, relays,
// range, scan interval) change fingerprint inputs and correctly fork the
// trace per swept value.
type Axis struct {
	// Name is the stable identifier used in experiment definitions and
	// on-disk sweep specs ("ttl_min", "vehicles", ...). Names follow the
	// scenario schema's field vocabulary: scenario-facing units, snake
	// case.
	Name string
	// Label heads the x column in rendered tables ("ttl(min)").
	Label string
	// MovesContacts reports whether the axis changes an input of the
	// contact process (and therefore of ContactFingerprint): sweeps over
	// such an axis record one contact trace per swept value instead of
	// sharing one across the sweep.
	MovesContacts bool

	apply func(c *sim.Config, v float64)
}

// Apply writes value v into the config.
func (a Axis) Apply(c *sim.Config, v float64) { a.apply(c, v) }

var (
	axisMu  sync.RWMutex
	axisDef = map[string]Axis{}
)

// RegisterAxis adds a custom axis to the registry, making it usable in
// experiment definitions and sweep spec files. It returns an error on an
// empty name, a nil apply function, or a name collision with a built-in
// or previously registered axis.
func RegisterAxis(a Axis) error {
	if a.Name == "" || a.apply == nil {
		return fmt.Errorf("scenario: axis needs a name and an apply function")
	}
	axisMu.Lock()
	defer axisMu.Unlock()
	if _, dup := axisDef[a.Name]; dup {
		return fmt.Errorf("scenario: axis %q already registered", a.Name)
	}
	axisDef[a.Name] = a
	return nil
}

// NewAxis builds a registrable custom axis from its parts; pass it to
// RegisterAxis.
func NewAxis(name, label string, movesContacts bool, apply func(c *sim.Config, v float64)) Axis {
	return Axis{Name: name, Label: label, MovesContacts: movesContacts, apply: apply}
}

// AxisByName looks an axis up by its stable name.
func AxisByName(name string) (Axis, bool) {
	axisMu.RLock()
	defer axisMu.RUnlock()
	a, ok := axisDef[name]
	return a, ok
}

// Axes returns every registered axis, sorted by name.
func Axes() []Axis {
	axisMu.RLock()
	defer axisMu.RUnlock()
	out := make([]Axis, 0, len(axisDef))
	for _, a := range axisDef {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// mustRegister seeds the built-in axes at init; a collision here is a
// programming error.
func mustRegister(name, label string, movesContacts bool, apply func(c *sim.Config, v float64)) {
	if err := RegisterAxis(NewAxis(name, label, movesContacts, apply)); err != nil {
		panic(err)
	}
}

// The built-in axes (docs/SWEEPS.md lists them): every parameter the
// paper's figures and the catalog's ablations sweep, plus the obvious
// neighbours. Labels reproduce the pre-refactor tables byte for byte.
func init() {
	mustRegister("ttl_min", "ttl(min)", false, func(c *sim.Config, v float64) {
		c.TTL = units.Minutes(v)
	})
	mustRegister("rate_mbit", "rate(Mbit/s)", false, func(c *sim.Config, v float64) {
		c.Rate = units.Mbit(v)
	})
	// buffer_mb provisions vehicle buffers at v MB and relay buffers at
	// 5×v MB — the paper scenario's 100 MB : 500 MB ratio, held constant
	// while the sweep scales total storage.
	mustRegister("buffer_mb", "buffer(MB)", false, func(c *sim.Config, v float64) {
		c.VehicleBuffer = units.MB(v)
		c.RelayBuffer = units.MB(5 * v)
	})
	mustRegister("vehicle_buffer_mb", "vehicle buffer(MB)", false, func(c *sim.Config, v float64) {
		c.VehicleBuffer = units.MB(v)
	})
	mustRegister("relay_buffer_mb", "relay buffer(MB)", false, func(c *sim.Config, v float64) {
		c.RelayBuffer = units.MB(v)
	})
	mustRegister("copies", "copies", false, func(c *sim.Config, v float64) {
		c.SprayCopies = int(v)
	})
	mustRegister("warmup_min", "warmup(min)", false, func(c *sim.Config, v float64) {
		c.Warmup = units.Minutes(v)
	})
	mustRegister("vehicles", "vehicles", true, func(c *sim.Config, v float64) {
		c.Vehicles = int(v)
	})
	mustRegister("relays", "relays", true, func(c *sim.Config, v float64) {
		c.Relays = int(v)
	})
	mustRegister("range_m", "range(m)", true, func(c *sim.Config, v float64) {
		c.Range = v
	})
	mustRegister("scan_sec", "scan(s)", true, func(c *sim.Config, v float64) {
		c.ScanInterval = v
	})
}

// AxisLabel returns the table label of a named axis, falling back to the
// name itself when the axis is unknown (render paths must not fail on a
// table that already ran).
func AxisLabel(name string) string {
	if a, ok := AxisByName(name); ok {
		return a.Label
	}
	return name
}
