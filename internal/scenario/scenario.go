// Package scenario persists simulation configurations as JSON files, so
// scenarios can be versioned, shared and rerun byte-identically. The file
// schema speaks scenario-facing units (minutes, MB, km/h, Mbit/s) and is
// converted to the simulator's SI-unit Config on load.
//
// Beyond single scenarios, the schema carries whole experiments: the
// "sweep" and "series" blocks (SweepSpec, SeriesSpec) describe a family
// of scenarios swept over one named Axis — see docs/SWEEPS.md and the
// experiments package's LoadSpec. The fixed axis table (Axes, AxisByName)
// is the shared vocabulary: each axis is a named, serializable config
// mutation that declares whether it can move the contact process (and
// therefore sim.ContactFingerprint, which sim alone defines). Protocol and
// policy names resolve through internal/sim's kind tables
// (sim.ParseProtocol, sim.ParsePolicy).
//
// Config fields that cannot be serialized — a custom router factory, a
// trace callback, an in-memory map graph — are deliberately outside the
// schema; files describe the declarative part of a scenario, and callers
// attach code afterwards. Contact plans and scripted traffic are inlined;
// a plan's windows are contactplan.Contact values, serialized as they are.
package scenario

import (
	"encoding/json"
	"fmt"

	"vdtn/internal/contactplan"
	"vdtn/internal/sim"
	"vdtn/internal/units"
)

// File is the on-disk scenario schema. Zero-valued fields inherit the
// paper defaults (sim.DefaultConfig) on load, except the pointer fields
// (seed, relays and the pause bounds), where zero is a meaningful value:
// absent means the paper default, present means the value, zero included.
type File struct {
	// Name is a free-form label carried into run output.
	Name string  `json:"name,omitempty"`
	Seed *uint64 `json:"seed,omitempty"`

	DurationHours float64 `json:"duration_hours,omitempty"`
	WarmupMin     float64 `json:"warmup_min,omitempty"`

	Vehicles        int     `json:"vehicles,omitempty"`
	Relays          *int    `json:"relays,omitempty"`
	VehicleBufferMB float64 `json:"vehicle_buffer_mb,omitempty"`
	RelayBufferMB   float64 `json:"relay_buffer_mb,omitempty"`

	SpeedLoKmh float64  `json:"speed_lo_kmh,omitempty"`
	SpeedHiKmh float64  `json:"speed_hi_kmh,omitempty"`
	PauseLoMin *float64 `json:"pause_lo_min,omitempty"`
	PauseHiMin *float64 `json:"pause_hi_min,omitempty"`

	RangeM   float64 `json:"range_m,omitempty"`
	RateMbit float64 `json:"rate_mbit,omitempty"`
	ScanSec  float64 `json:"scan_sec,omitempty"`

	MsgIntervalLoSec float64 `json:"msg_interval_lo_sec,omitempty"`
	MsgIntervalHiSec float64 `json:"msg_interval_hi_sec,omitempty"`
	MsgSizeLoKB      float64 `json:"msg_size_lo_kb,omitempty"`
	MsgSizeHiKB      float64 `json:"msg_size_hi_kb,omitempty"`
	TTLMin           float64 `json:"ttl_min,omitempty"`

	Protocol    string `json:"protocol,omitempty"` // a sim.ProtocolKind key: "epidemic", "maxprop", ...
	Policy      string `json:"policy,omitempty"`   // a sim.PolicyKind key: "fifo", "lifetime", ...
	SprayCopies int    `json:"spray_copies,omitempty"`

	// Contacts switches to contact-plan mode when non-empty. Each window
	// is a contactplan.Contact, written {"start", "end", "a", "b"}.
	Contacts []contactplan.Contact `json:"contacts,omitempty"`
	// Script replaces random traffic when non-empty.
	Script []Message `json:"script,omitempty"`

	// Sweep, when non-nil, turns the file from a single scenario into a
	// declarative experiment: the scalar fields above become the base
	// scenario, Sweep names the swept axis and its values, and Series
	// lists the compared lines. The experiments package materializes the
	// (series × value) cell grid from it (see experiments.LoadSpec).
	Sweep *SweepSpec `json:"sweep,omitempty"`
	// Series are the sweep's compared lines. Empty with a Sweep present
	// means one series built from the base protocol/policy.
	Series []SeriesSpec `json:"series,omitempty"`
}

// SweepSpec declares the swept dimensions of an experiment file: one
// named axis with its values (or, for grid sweeps, a list of axes whose
// cross-product forms the cells), the reported metric, optional fixed
// axis settings applied to every cell before the swept values, and
// optional spec-level replication defaults.
type SweepSpec struct {
	// ID is the experiment handle ("fig5", "fleet-density", ...); it names
	// output files and CLI selection. Empty defaults to the file's Name.
	ID string `json:"id,omitempty"`
	// Title describes the experiment in table headers.
	Title string `json:"title,omitempty"`
	// Axis names the swept parameter (AxisByName). Exclusive with Axes.
	Axis string `json:"axis,omitempty"`
	// Values are the swept points, in plot order. Exclusive with Axes.
	Values []float64 `json:"values,omitempty"`
	// Axes declares a multi-axis grid sweep: cells are the cross-product
	// of every listed axis's values. The first axis heads the x column of
	// rendered tables; the rest fan each series out into one sub-series
	// per value combination. Exclusive with Axis/Values.
	Axes []GridAxisSpec `json:"axes,omitempty"`
	// Metric names the reported metric ("delivery_prob", "avg_delay_min",
	// ...); empty defaults to delivery probability. Any metric can still
	// be rendered later from the stored full results.
	Metric string `json:"metric,omitempty"`
	// Set holds fixed axis settings applied to every cell before the
	// swept value (e.g. {"ttl_min": 120} for a non-TTL ablation).
	Set map[string]float64 `json:"set,omitempty"`
	// Seeds and Scale are spec-level defaults for the matching run
	// options: the replication seeds each cell runs under and the
	// duration scale. Explicit ExperimentOptions (the CLI's -seeds and
	// -scale flags) override them; zero/absent means the global defaults
	// ({1} and 1).
	Seeds []uint64 `json:"seeds,omitempty"`
	Scale float64  `json:"scale,omitempty"`
}

// GridAxisSpec is one swept dimension of a grid sweep's "axes" list.
type GridAxisSpec struct {
	// Axis names the swept parameter (AxisByName).
	Axis string `json:"axis"`
	// Values are the swept points, in plot order.
	Values []float64 `json:"values"`
}

// SeriesSpec is one compared line of a sweep: a label, a routing
// selection, and optional per-series fixed axis settings applied after
// the swept value.
type SeriesSpec struct {
	Name     string             `json:"name"`
	Protocol string             `json:"protocol,omitempty"`
	Policy   string             `json:"policy,omitempty"`
	Set      map[string]float64 `json:"set,omitempty"`
}

// Message is one scripted message in the schema.
type Message struct {
	TimeSec float64 `json:"time_sec"`
	From    int     `json:"from"`
	To      int     `json:"to"`
	SizeKB  float64 `json:"size_kb"`
}

// Load parses JSON into a validated sim.Config.
func Load(data []byte) (sim.Config, error) {
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return sim.Config{}, fmt.Errorf("scenario: %w", err)
	}
	return f.Config()
}

// Config converts the file into a validated sim.Config, applying paper
// defaults for zero-valued and absent fields. A contact plan without a
// relay count has no relays.
func (f File) Config() (sim.Config, error) {
	c := sim.DefaultConfig()
	if f.Seed != nil {
		c.Seed = *f.Seed
	}
	if f.DurationHours != 0 {
		c.Duration = units.Hours(f.DurationHours)
	}
	c.Warmup = units.Minutes(f.WarmupMin)
	if f.Vehicles != 0 {
		c.Vehicles = f.Vehicles
	}
	if f.Relays != nil {
		c.Relays = *f.Relays
	} else if len(f.Contacts) > 0 {
		c.Relays = 0
	}
	if f.VehicleBufferMB != 0 {
		c.VehicleBuffer = units.MB(f.VehicleBufferMB)
	}
	if f.RelayBufferMB != 0 {
		c.RelayBuffer = units.MB(f.RelayBufferMB)
	}
	if f.SpeedLoKmh != 0 {
		c.SpeedLo = units.KmhToMs(f.SpeedLoKmh)
	}
	if f.SpeedHiKmh != 0 {
		c.SpeedHi = units.KmhToMs(f.SpeedHiKmh)
	}
	if f.PauseLoMin != nil {
		c.PauseLo = units.Minutes(*f.PauseLoMin)
	}
	if f.PauseHiMin != nil {
		c.PauseHi = units.Minutes(*f.PauseHiMin)
	}
	if f.RangeM != 0 {
		c.Range = f.RangeM
	}
	if f.RateMbit != 0 {
		c.Rate = units.Mbit(f.RateMbit)
	}
	if f.ScanSec != 0 {
		c.ScanInterval = f.ScanSec
	}
	if f.MsgIntervalLoSec != 0 {
		c.MsgIntervalLo = f.MsgIntervalLoSec
	}
	if f.MsgIntervalHiSec != 0 {
		c.MsgIntervalHi = f.MsgIntervalHiSec
	}
	if f.MsgSizeLoKB != 0 {
		c.MsgSizeLo = units.KB(f.MsgSizeLoKB)
	}
	if f.MsgSizeHiKB != 0 {
		c.MsgSizeHi = units.KB(f.MsgSizeHiKB)
	}
	if f.TTLMin != 0 {
		c.TTL = units.Minutes(f.TTLMin)
	}
	if f.Protocol != "" {
		p, ok := sim.ParseProtocol(f.Protocol)
		if !ok {
			return sim.Config{}, fmt.Errorf("scenario: unknown protocol %q", f.Protocol)
		}
		c.Protocol = p
	}
	if f.Policy != "" {
		p, ok := sim.ParsePolicy(f.Policy)
		if !ok {
			return sim.Config{}, fmt.Errorf("scenario: unknown policy %q", f.Policy)
		}
		c.Policy = p
	}
	if f.SprayCopies != 0 {
		c.SprayCopies = f.SprayCopies
	}
	if len(f.Contacts) > 0 {
		plan, err := contactplan.New(f.Contacts)
		if err != nil {
			return sim.Config{}, err
		}
		c.Plan = plan
	}
	for _, m := range f.Script {
		c.Script = append(c.Script, sim.ScriptedMessage{
			Time: m.TimeSec,
			From: m.From,
			To:   m.To,
			Size: units.KB(m.SizeKB),
		})
	}
	if err := c.Validate(); err != nil {
		return sim.Config{}, err
	}
	return c, nil
}

// Save renders a Config back into indented JSON. Fields that match the
// paper defaults are written anyway, so the file is a complete record.
// Custom router factories, trace callbacks and in-memory maps are not
// representable and are silently omitted.
func Save(name string, c sim.Config) ([]byte, error) {
	pauseLo, pauseHi := c.PauseLo/60, c.PauseHi/60
	f := File{
		Name:             name,
		Seed:             &c.Seed,
		DurationHours:    c.Duration / 3600,
		WarmupMin:        c.Warmup / 60,
		Vehicles:         c.Vehicles,
		Relays:           &c.Relays,
		VehicleBufferMB:  float64(c.VehicleBuffer) / 1e6,
		RelayBufferMB:    float64(c.RelayBuffer) / 1e6,
		SpeedLoKmh:       units.MsToKmh(c.SpeedLo),
		SpeedHiKmh:       units.MsToKmh(c.SpeedHi),
		PauseLoMin:       &pauseLo,
		PauseHiMin:       &pauseHi,
		RangeM:           c.Range,
		RateMbit:         float64(c.Rate) / 1e6,
		ScanSec:          c.ScanInterval,
		MsgIntervalLoSec: c.MsgIntervalLo,
		MsgIntervalHiSec: c.MsgIntervalHi,
		MsgSizeLoKB:      float64(c.MsgSizeLo) / 1e3,
		MsgSizeHiKB:      float64(c.MsgSizeHi) / 1e3,
		TTLMin:           c.TTL / 60,
		Protocol:         c.Protocol.Key(),
		Policy:           c.Policy.Key(),
		SprayCopies:      c.SprayCopies,
	}
	if c.Plan != nil {
		f.Contacts = c.Plan.Windows()
	}
	for _, m := range c.Script {
		f.Script = append(f.Script, Message{
			TimeSec: m.Time, From: m.From, To: m.To, SizeKB: float64(m.Size) / 1e3,
		})
	}
	return json.MarshalIndent(f, "", "  ")
}
