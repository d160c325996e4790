package scenario

import (
	"slices"

	"vdtn/internal/sim"
	"vdtn/internal/units"
)

// Axis is a named, serializable swept parameter: the declarative
// replacement for the closure-based config mutations the experiment
// harness used to hardwire per figure. An axis knows how to write one
// scalar value into a sim.Config and whether doing so can move the
// scenario's contact process.
//
// Because an axis is applied to the config *before* sim.ContactFingerprint
// is taken, mobility-invariant axes (TTL, buffers, link rate, copy budget)
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
	// contact process (and therefore of sim.ContactFingerprint): sweeps
	// over such an axis record one contact trace per swept value instead of
	// sharing one across the sweep.
	MovesContacts bool

	apply func(c *sim.Config, v float64)
}

// Apply writes value v into the config.
func (a Axis) Apply(c *sim.Config, v float64) { a.apply(c, v) }

// axes is the fixed set of sweep axes (docs/SWEEPS.md lists them), sorted
// by name: every parameter the paper's figures and the catalog's
// ablations sweep, plus the obvious neighbours. Labels reproduce the
// pre-refactor tables byte for byte.
var axes = [...]Axis{
	// buffer_mb provisions vehicle buffers at v MB and relay buffers at
	// 5×v MB — the paper scenario's 100 MB : 500 MB ratio, held constant
	// while the sweep scales total storage.
	{"buffer_mb", "buffer(MB)", false, func(c *sim.Config, v float64) {
		c.VehicleBuffer = units.MB(v)
		c.RelayBuffer = units.MB(5 * v)
	}},
	{"copies", "copies", false, func(c *sim.Config, v float64) { c.SprayCopies = int(v) }},
	{"range_m", "range(m)", true, func(c *sim.Config, v float64) { c.Range = v }},
	{"rate_mbit", "rate(Mbit/s)", false, func(c *sim.Config, v float64) { c.Rate = units.Mbit(v) }},
	{"relay_buffer_mb", "relay buffer(MB)", false, func(c *sim.Config, v float64) { c.RelayBuffer = units.MB(v) }},
	{"relays", "relays", true, func(c *sim.Config, v float64) { c.Relays = int(v) }},
	{"scan_sec", "scan(s)", true, func(c *sim.Config, v float64) { c.ScanInterval = v }},
	{"ttl_min", "ttl(min)", false, func(c *sim.Config, v float64) { c.TTL = units.Minutes(v) }},
	{"vehicle_buffer_mb", "vehicle buffer(MB)", false, func(c *sim.Config, v float64) { c.VehicleBuffer = units.MB(v) }},
	{"vehicles", "vehicles", true, func(c *sim.Config, v float64) { c.Vehicles = int(v) }},
	{"warmup_min", "warmup(min)", false, func(c *sim.Config, v float64) { c.Warmup = units.Minutes(v) }},
}

// AxisByName looks an axis up by its stable name.
func AxisByName(name string) (Axis, bool) {
	for _, a := range axes {
		if a.Name == name {
			return a, true
		}
	}
	return Axis{}, false
}

// Axes returns every axis, sorted by name.
func Axes() []Axis { return slices.Clone(axes[:]) }

// AxisLabel returns the table label of a named axis, falling back to the
// name itself when the axis is unknown (render paths must not fail on a
// table that already ran).
func AxisLabel(name string) string {
	if a, ok := AxisByName(name); ok {
		return a.Label
	}
	return name
}
