package sim

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"

	"vdtn/internal/contactplan"
	"vdtn/internal/event"
	"vdtn/internal/roadmap"
	"vdtn/internal/wireless"
	"vdtn/internal/xrand"
)

// contactConfig keeps exactly the fields the contact process reads — the
// seed, horizon, fleet composition, mobility bounds, radio range, scan
// interval and road map — and resets every other field (traffic, routing,
// buffers, link rate, warm-up, tracing, plan and replay source) to its
// DefaultConfig value. It is the one declaration of what a contact trace
// depends on: ContactFingerprint hashes its result, and RecordContacts
// records and validates it.
func contactConfig(cfg Config) Config {
	c := DefaultConfig()
	c.Seed = cfg.Seed
	c.Duration = cfg.Duration
	c.Map = cfg.Map
	c.Vehicles = cfg.Vehicles
	c.Relays = cfg.Relays
	c.SpeedLo, c.SpeedHi = cfg.SpeedLo, cfg.SpeedHi
	c.PauseLo, c.PauseHi = cfg.PauseLo, cfg.PauseHi
	c.Range = cfg.Range
	c.ScanInterval = cfg.ScanInterval
	return c
}

// defaultMapFingerprint caches the hash of roadmap.HelsinkiLike(), which a
// nil Config.Map selects; the generator is deterministic, so one build per
// process suffices.
var defaultMapFingerprint = sync.OnceValue(func() uint64 {
	return roadmap.HelsinkiLike().Fingerprint()
})

// ContactFingerprint returns a stable hex key identifying the contact
// process of a configuration: a hash of its contactConfig, the only inputs
// that determine when node pairs enter and leave radio range. Fields that
// cannot move a vehicle or a scan tick (buffers, traffic, TTL, routing,
// link rate, warm-up, tracing) are deliberately excluded, so every cell of
// a policy or TTL sweep over one (scenario, seed) pair shares a key and can
// share one recorded contact trace.
func ContactFingerprint(cfg Config) string {
	c := contactConfig(cfg)
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f := func(v float64) { word(math.Float64bits(v)) }

	word(1) // fingerprint schema version
	word(c.Seed)
	f(c.Duration)
	word(uint64(c.Vehicles))
	word(uint64(c.Relays))
	f(c.SpeedLo)
	f(c.SpeedHi)
	f(c.PauseLo)
	f(c.PauseHi)
	f(c.Range)
	f(c.ScanInterval)
	if c.Map == nil {
		word(defaultMapFingerprint())
	} else {
		word(c.Map.Fingerprint())
	}

	const hex = "0123456789abcdef"
	sum := h.Sum64()
	var out [16]byte
	for i := range out {
		out[i] = hex[(sum>>(60-4*i))&0xf]
	}
	return string(out[:])
}

// RecordContacts simulates only the mobility and proximity layer of cfg —
// no routers, buffers or traffic — and returns the contact trace the full
// scenario would produce. The trace is bit-identical to the contact
// process of a complete live run, because a live run's contacts come from
// this same pass (contactPass): the process depends solely on the
// per-node mobility streams (independent of the traffic and policy
// streams) and the scan tick sequence. Replaying the returned recording —
// a RecordingView over its EncodeBinary bytes, set as
// Config.ReplaySource — therefore yields the same Result as a live run at
// a fraction of the cost: the contract the experiment harness's contact
// cache is built on.
func RecordContacts(cfg Config) (*wireless.Recording, error) {
	return RecordContactsContext(context.Background(), cfg)
}

// RecordContactsContext is RecordContacts checking ctx between events, the
// same cooperative checkpointing as World.RunContext: cancellation stops
// the pass at an event boundary within cancelCheckStride events and
// returns (nil, ctx.Err()) — a recording pass over a long horizon no
// longer pins a SIGINT'd process for the rest of the pass.
//
// The pass records cfg's contactConfig and validates only the fields it
// keeps, so every configuration with one ContactFingerprint records the
// same trace: one cell with, say, an invalid TTL cannot poison the trace
// its (scenario, seed) group shares. A contact-plan or replay
// configuration is refused. It is the pass a live World.RunContext runs
// beside its event loop, collected into memory instead of streamed.
func RecordContactsContext(ctx context.Context, cfg Config) (*wireless.Recording, error) {
	if !cfg.Live() {
		return nil, fmt.Errorf("sim: cannot record the contacts of a contact-plan or replay scenario")
	}
	cfg = contactConfig(cfg)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	graph, err := scenarioMap(cfg)
	if err != nil {
		return nil, err
	}
	pass := newContactPass(cfg, graph)
	pass.medium.StartRecording()
	if err := pass.run(ctx); err != nil {
		// A torn trace must never escape: the recording stops between
		// scan ticks, so it would be a valid-looking prefix — silently
		// wrong for any run longer than the cut.
		return nil, err
	}
	return pass.medium.TakeRecording(cfg.Duration), nil
}

// contactPass is the contact process of a live configuration on its own:
// a scheduler and a scan-driven medium over the scenario's mobility
// models, with no routers, buffers or traffic. It is the only place a run
// builds or moves a mobility model. RecordContactsContext collects its
// transitions; World.RunContext streams them to the world's medium.
type contactPass struct {
	horizon float64
	sched   *event.Scheduler
	medium  *wireless.Medium
	mobs    []wireless.Entity // each node's mobility model, the scan's position sources
}

// newContactPass assembles cfg's contact pass over graph, the scenario's
// resolved and validated road map. It reads only cfg's contactConfig
// fields, and its mobility models draw from the "mobility" streams of a
// source seeded with cfg.Seed, the same streams for every configuration
// of one ContactFingerprint.
func newContactPass(cfg Config, graph *roadmap.Graph) contactPass {
	cfg = contactConfig(cfg)
	sched := event.NewScheduler()
	mobs := mobilityModels(cfg, graph, xrand.NewSource(cfg.Seed))
	return contactPass{horizon: cfg.Duration, sched: sched, medium: newMedium(sched, cfg, len(mobs)), mobs: mobs}
}

// run scans from time 0 to the horizon, checking ctx between events.
func (p contactPass) run(ctx context.Context) error {
	p.medium.Start(0, p.mobs)
	return runUntil(ctx, p.sched, p.horizon, nil)
}

// ReplaySourceCompatible reports whether v can drive cfg's contact
// process: the trace must be recorded at cfg's scan interval, cover at
// least cfg's horizon, and reference only nodes the scenario has.
// Config.Validate applies it in replay mode; the experiment harness's
// contact cache applies it to persisted traces before serving them, so a
// stale or misfiled cache entry re-records instead of failing every cell
// that touches it. The view proved the trace's structure when it opened,
// so no replay validates a trace again — which is what makes replay
// allocation-free per cell.
func ReplaySourceCompatible(cfg Config, v *wireless.RecordingView) error {
	meta := v.Meta()
	if meta.ScanInterval != cfg.ScanInterval {
		return fmt.Errorf("sim: recording scan interval %v, scenario %v", meta.ScanInterval, cfg.ScanInterval)
	}
	// A shorter horizon replays a prefix of the trace and stays
	// bit-identical to a live run of that horizon; a longer one would
	// freeze contacts in their final recorded state.
	if cfg.Duration > meta.Duration {
		return fmt.Errorf("sim: run duration %v exceeds the recording's %v", cfg.Duration, meta.Duration)
	}
	if v.MaxNode() >= cfg.Vehicles+cfg.Relays {
		return fmt.Errorf("sim: recording references node %d, scenario has %d nodes",
			v.MaxNode(), cfg.Vehicles+cfg.Relays)
	}
	return nil
}

// RecordingPlan converts a recording into a contact plan, for export to
// the plan text format or scenario JSON. Contacts still open at the end of
// the trace are closed at its duration, so a plan-driven re-run is close
// to but not bit-identical with a replay (plan windows also fire outside
// the scan-tick event slots); replay the recording when exactness matters.
func RecordingPlan(rec *wireless.Recording) (*contactplan.Plan, error) {
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	return contactplan.New(rec.Windows())
}
