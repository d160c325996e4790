package sim

import (
	"fmt"

	"vdtn/internal/contactplan"
	"vdtn/internal/core"
	"vdtn/internal/roadmap"
	"vdtn/internal/routing"
	"vdtn/internal/trace"
	"vdtn/internal/units"
	"vdtn/internal/wireless"
	"vdtn/internal/xrand"
)

// ProtocolKind selects the routing protocol for a scenario.
type ProtocolKind int

// The protocols the paper evaluates, plus two classic baselines.
const (
	ProtoEpidemic ProtocolKind = iota
	ProtoSprayAndWait
	ProtoSprayAndWaitVanilla
	ProtoMaxProp
	ProtoPRoPHET
	ProtoDirectDelivery
	ProtoFirstContact
)

// String returns the report name of the protocol.
func (p ProtocolKind) String() string {
	switch p {
	case ProtoEpidemic:
		return "Epidemic"
	case ProtoSprayAndWait:
		return "SprayAndWait"
	case ProtoSprayAndWaitVanilla:
		return "SprayAndWaitVanilla"
	case ProtoMaxProp:
		return "MaxProp"
	case ProtoPRoPHET:
		return "PRoPHET"
	case ProtoDirectDelivery:
		return "DirectDelivery"
	case ProtoFirstContact:
		return "FirstContact"
	default:
		return fmt.Sprintf("ProtocolKind(%d)", int(p))
	}
}

// PolicyKind selects the combined scheduling-dropping policy (Table I) for
// protocols that take one (Epidemic, Spray and Wait, the baselines).
// MaxProp and PRoPHET ignore it: they carry their own mechanisms.
type PolicyKind int

// The paper's Table I rows, followed by the extended literature policies
// (see internal/core/extra.go).
const (
	PolicyFIFOFIFO PolicyKind = iota
	PolicyRandomFIFO
	PolicyLifetime
	// PolicySize pairs smallest-first scheduling with largest-first drop.
	PolicySize
	// PolicyHopMOFO pairs fewest-hops-first scheduling with
	// most-forwarded-first drop.
	PolicyHopMOFO
	// PolicyFIFOOldestAge pairs FIFO scheduling with oldest-creation drop.
	PolicyFIFOOldestAge
)

// String returns the paper's name for the policy pair.
func (k PolicyKind) String() string {
	switch k {
	case PolicyFIFOFIFO:
		return "FIFO-FIFO"
	case PolicyRandomFIFO:
		return "Random-FIFO"
	case PolicyLifetime:
		return "LifetimeDESC-LifetimeASC"
	case PolicySize:
		return "SizeASC-SizeDESC"
	case PolicyHopMOFO:
		return "HopASC-MOFO"
	case PolicyFIFOOldestAge:
		return "FIFO-OldestAge"
	default:
		return fmt.Sprintf("PolicyKind(%d)", int(k))
	}
}

// build materializes the policy; rnd feeds the Random scheduler and must be
// the node's own stream so runs stay reproducible.
func (k PolicyKind) build(rnd *xrand.Rand) core.Policy {
	switch k {
	case PolicyFIFOFIFO:
		return core.FIFOFIFO()
	case PolicyRandomFIFO:
		return core.RandomFIFO(rnd)
	case PolicyLifetime:
		return core.Lifetime()
	case PolicySize:
		return core.Policy{Schedule: core.SizeASCSchedule{}, Drop: core.SizeDESCDrop{}}
	case PolicyHopMOFO:
		return core.Policy{Schedule: core.HopCountASCSchedule{}, Drop: core.MOFODrop{}}
	case PolicyFIFOOldestAge:
		return core.Policy{Schedule: core.FIFOSchedule{}, Drop: core.OldestAgeDrop{}}
	default:
		panic(fmt.Sprintf("sim: unknown policy kind %d", int(k)))
	}
}

// Config fully describes a simulation scenario. The zero value is not
// runnable; start from PaperConfig or DefaultConfig and adjust.
type Config struct {
	// Seed is the master random seed; every stochastic component derives
	// its stream from it.
	Seed uint64
	// Duration is the simulated time horizon in seconds.
	Duration float64

	// Map is the road network; nil selects roadmap.HelsinkiLike().
	// Ignored in contact-plan and replay runs.
	Map *roadmap.Graph

	// Plan, when non-nil, switches the scenario to contact-plan mode:
	// connectivity comes from the scheduled windows instead of mobility
	// and radio range (positions are ignored; node ids in the plan must
	// be < Vehicles+Relays). Use for replaying recorded connectivity
	// traces or scripting exact topologies.
	Plan *contactplan.Plan

	// Script, when non-empty, replaces the random traffic generator with
	// exactly these messages (each with the scenario TTL). Use together
	// with Plan for fully deterministic micro-scenarios.
	Script []ScriptedMessage

	// ReplaySource, when non-nil, drives the contact process from a
	// recorded trace instead of mobility and proximity scanning. The view
	// is either NewRecordingView over the EncodeBinary bytes of a trace
	// RecordContacts produced from the scenario's mobility alone, or
	// OpenRecordingView over a persisted .contactsb file. A replayed run is
	// bit-identical to the live run (same Result, same trace events) but
	// skips all position and proximity work. The view validated its trace
	// once at open, so a run checks only its fit and replays with no
	// per-run trace allocation; concurrent sweep cells (and concurrent
	// processes, via the page cache) share one copy of the trace. The
	// trace must match the scenario's scan interval and node count and
	// cover its horizon. Mutually exclusive with Plan.
	ReplaySource *wireless.RecordingView

	// Vehicles is the number of mobile nodes (ids 0..Vehicles-1).
	Vehicles int
	// Relays is the number of stationary relay nodes placed on crossroads
	// via roadmap.RelaySites (ids Vehicles..Vehicles+Relays-1).
	Relays int

	// VehicleBuffer and RelayBuffer are per-node buffer capacities.
	VehicleBuffer units.Bytes
	RelayBuffer   units.Bytes

	// SpeedLo/SpeedHi bound vehicle speed in m/s; PauseLo/PauseHi bound
	// the waypoint pause in seconds.
	SpeedLo, SpeedHi float64
	PauseLo, PauseHi float64

	// Range is the radio range in metres; Rate the contact data rate;
	// ScanInterval the contact-detection period in seconds.
	Range        float64
	Rate         units.BitRate
	ScanInterval float64

	// MsgIntervalLo/Hi bound the uniform inter-creation time in seconds;
	// MsgSizeLo/Hi bound the uniform message size; TTL is the message
	// lifetime in seconds. Message sources and destinations are distinct
	// uniform random vehicles.
	MsgIntervalLo, MsgIntervalHi float64
	MsgSizeLo, MsgSizeHi         units.Bytes
	TTL                          float64
	// MessageGenEnd stops message creation at this time (0 = Duration).
	MessageGenEnd float64

	// Protocol and Policy select routing; SprayCopies is Spray-and-Wait's
	// copy budget N.
	Protocol    ProtocolKind
	Policy      PolicyKind
	SprayCopies int

	// NewRouter, when non-nil, overrides Protocol/Policy: it is called
	// once per node to build a custom router (the extension point the
	// examples use). rnd is the node's policy stream.
	NewRouter func(node int, rnd *xrand.Rand) routing.Router

	// SweepInterval is the periodic TTL-sweep period in seconds
	// (0 = 30 s).
	SweepInterval float64

	// Warmup excludes messages created before this time (seconds) from
	// all statistics: the network runs, but the ledger only counts the
	// steady state. Zero disables warm-up (the paper measures from a cold
	// start).
	Warmup float64

	// Trace, when non-nil, receives every simulation event (contacts,
	// transfers, message lifecycle); see internal/trace for ready-made
	// consumers. Tracing is free when nil.
	Trace trace.Func
}

// DefaultConfig returns the paper's scenario (§III) with a 60-minute TTL
// and Epidemic FIFO-FIFO routing: a map-based model of part of Helsinki,
// 40 vehicles with 100 MB buffers moving at 30-50 km/h with 5-15 minute
// pauses, 5 relay nodes with 500 MB buffers, 802.11b radios (6 Mbit/s,
// 30 m), messages of 500 KB-2 MB every 15-30 s between random vehicles,
// over a 12-hour period.
func DefaultConfig() Config {
	return Config{
		Seed:          1,
		Duration:      units.Hours(12),
		Vehicles:      40,
		Relays:        5,
		VehicleBuffer: units.MB(100),
		RelayBuffer:   units.MB(500),
		SpeedLo:       units.KmhToMs(30),
		SpeedHi:       units.KmhToMs(50),
		PauseLo:       units.Minutes(5),
		PauseHi:       units.Minutes(15),
		Range:         30,
		Rate:          units.Mbit(6),
		ScanInterval:  1,
		MsgIntervalLo: 15,
		MsgIntervalHi: 30,
		MsgSizeLo:     units.KB(500),
		MsgSizeHi:     units.MB(2),
		TTL:           units.Minutes(60),
		Protocol:      ProtoEpidemic,
		Policy:        PolicyFIFOFIFO,
		SprayCopies:   12,
		SweepInterval: 30,
	}
}

// PaperConfig returns the paper scenario for one evaluation point:
// the given TTL (minutes), protocol, policy and seed.
func PaperConfig(ttlMinutes float64, proto ProtocolKind, pol PolicyKind, seed uint64) Config {
	c := DefaultConfig()
	c.TTL = units.Minutes(ttlMinutes)
	c.Protocol = proto
	c.Policy = pol
	c.Seed = seed
	return c
}

// Validate reports the first invalid field, if any.
func (c Config) Validate() error {
	switch {
	case c.Duration <= 0:
		return fmt.Errorf("sim: non-positive duration %v", c.Duration)
	case c.Vehicles < 2:
		return fmt.Errorf("sim: need at least 2 vehicles for traffic, got %d", c.Vehicles)
	case c.Relays < 0:
		return fmt.Errorf("sim: negative relay count %d", c.Relays)
	case c.VehicleBuffer <= 0:
		return fmt.Errorf("sim: non-positive vehicle buffer %d", c.VehicleBuffer)
	case c.Relays > 0 && c.RelayBuffer <= 0:
		return fmt.Errorf("sim: non-positive relay buffer %d", c.RelayBuffer)
	case c.SpeedLo <= 0 || c.SpeedHi < c.SpeedLo:
		return fmt.Errorf("sim: bad speed bounds [%v, %v]", c.SpeedLo, c.SpeedHi)
	case c.PauseLo < 0 || c.PauseHi < c.PauseLo:
		return fmt.Errorf("sim: bad pause bounds [%v, %v]", c.PauseLo, c.PauseHi)
	case c.Range <= 0:
		return fmt.Errorf("sim: non-positive range %v", c.Range)
	case c.Rate <= 0:
		return fmt.Errorf("sim: non-positive rate %v", float64(c.Rate))
	case c.ScanInterval <= 0:
		return fmt.Errorf("sim: non-positive scan interval %v", c.ScanInterval)
	case c.MsgIntervalLo <= 0 || c.MsgIntervalHi < c.MsgIntervalLo:
		return fmt.Errorf("sim: bad message interval [%v, %v]", c.MsgIntervalLo, c.MsgIntervalHi)
	case c.MsgSizeLo <= 0 || c.MsgSizeHi < c.MsgSizeLo:
		return fmt.Errorf("sim: bad message size bounds [%d, %d]", c.MsgSizeLo, c.MsgSizeHi)
	case c.TTL <= 0:
		return fmt.Errorf("sim: non-positive TTL %v", c.TTL)
	case c.MessageGenEnd < 0 || (c.MessageGenEnd > 0 && c.MessageGenEnd > c.Duration):
		return fmt.Errorf("sim: message generation end %v outside run", c.MessageGenEnd)
	case c.NewRouter == nil && (c.Protocol == ProtoSprayAndWait || c.Protocol == ProtoSprayAndWaitVanilla) && c.SprayCopies < 1:
		return fmt.Errorf("sim: SprayAndWait needs a positive copy budget, got %d", c.SprayCopies)
	case c.SweepInterval < 0:
		return fmt.Errorf("sim: negative sweep interval %v", c.SweepInterval)
	case c.Warmup < 0 || c.Warmup >= c.Duration:
		return fmt.Errorf("sim: warmup %v outside the run duration %v", c.Warmup, c.Duration)
	}
	if c.Plan != nil && c.Plan.MaxNode() >= c.Vehicles+c.Relays {
		return fmt.Errorf("sim: contact plan references node %d, scenario has %d nodes",
			c.Plan.MaxNode(), c.Vehicles+c.Relays)
	}
	if c.ReplaySource != nil {
		if c.Plan != nil {
			return fmt.Errorf("sim: a replay source is exclusive with a contact plan")
		}
		if err := ReplaySourceCompatible(c, c.ReplaySource); err != nil {
			return err
		}
	}
	for i, s := range c.Script {
		n := c.Vehicles + c.Relays
		switch {
		case s.Time < 0 || s.Time >= c.Duration:
			return fmt.Errorf("sim: scripted message %d at time %v outside the run", i, s.Time)
		case s.From < 0 || s.From >= n || s.To < 0 || s.To >= n:
			return fmt.Errorf("sim: scripted message %d endpoints (%d, %d) out of range", i, s.From, s.To)
		case s.From == s.To:
			return fmt.Errorf("sim: scripted message %d sends to itself", i)
		case s.Size <= 0:
			return fmt.Errorf("sim: scripted message %d has size %d", i, s.Size)
		}
	}
	return nil
}

// live reports whether cfg's contacts come from mobility and proximity
// scanning, i.e. neither a contact plan nor a replay source drives them.
func (c Config) live() bool { return c.Plan == nil && c.ReplaySource == nil }

// ScriptedMessage is one deterministic traffic entry (see Config.Script).
type ScriptedMessage struct {
	Time     float64
	From, To int
	Size     units.Bytes
}

// buildRouter constructs the router for one node.
func (c Config) buildRouter(node int, rnd *xrand.Rand) routing.Router {
	if c.NewRouter != nil {
		return c.NewRouter(node, rnd)
	}
	switch c.Protocol {
	case ProtoEpidemic:
		return routing.NewEpidemic(c.Policy.build(rnd))
	case ProtoSprayAndWait:
		return routing.NewSprayAndWait(c.Policy.build(rnd), c.SprayCopies, true)
	case ProtoSprayAndWaitVanilla:
		return routing.NewSprayAndWait(c.Policy.build(rnd), c.SprayCopies, false)
	case ProtoMaxProp:
		return routing.NewMaxProp(routing.MaxPropConfig{})
	case ProtoPRoPHET:
		return routing.NewProphet(routing.DefaultProphetConfig())
	case ProtoDirectDelivery:
		return routing.NewDirectDelivery(c.Policy.build(rnd))
	case ProtoFirstContact:
		return routing.NewFirstContact(c.Policy.build(rnd))
	default:
		panic(fmt.Sprintf("sim: unknown protocol kind %d", int(c.Protocol)))
	}
}

// Label renders a short scenario label for reports, e.g.
// "Epidemic/LifetimeDESC-LifetimeASC ttl=90m".
func (c Config) Label() string {
	name := c.Protocol.String()
	if c.NewRouter != nil {
		name = "custom"
	}
	switch {
	case c.NewRouter == nil && (c.Protocol == ProtoMaxProp || c.Protocol == ProtoPRoPHET):
		return fmt.Sprintf("%s ttl=%s", name, units.FormatDuration(c.TTL))
	default:
		return fmt.Sprintf("%s/%s ttl=%s", name, c.Policy, units.FormatDuration(c.TTL))
	}
}
