package sim

import (
	"context"
	"fmt"

	"vdtn/internal/contactplan"
	"vdtn/internal/event"
	"vdtn/internal/wireless"
	"vdtn/internal/xrand"
)

// RecordContacts simulates only the mobility and proximity layer of cfg —
// no routers, buffers or traffic — and returns the contact trace the full
// scenario would produce. The trace is bit-identical to the contact
// process of a complete live run, because that process depends solely on
// the per-node mobility streams (independent of the traffic and policy
// streams) and the scan tick sequence, both of which New assembles the
// same way. Replaying the returned recording via Config.ReplaySource
// therefore yields the same Result as a live run at a fraction of the
// cost — the contract the experiment harness's contact cache is built on.
func RecordContacts(cfg Config) (*wireless.Recording, error) {
	return RecordContactsContext(context.Background(), cfg)
}

// RecordContactsContext is RecordContacts checking ctx between events, the
// same cooperative checkpointing as World.RunContext: cancellation stops
// the pass at an event boundary within cancelCheckStride events and
// returns (nil, ctx.Err()) — a recording pass over a long horizon no
// longer pins a SIGINT'd process for the rest of the pass.
func RecordContactsContext(ctx context.Context, cfg Config) (*wireless.Recording, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.live() {
		return nil, fmt.Errorf("sim: cannot record the contacts of a contact-plan or replay scenario")
	}
	graph, err := scenarioMap(cfg)
	if err != nil {
		return nil, err
	}
	sched := event.NewScheduler()
	medium := newMedium(sched, cfg)
	for id, mob := range mobilityModels(cfg, graph, xrand.NewSource(cfg.Seed)) {
		e := newMobileEntity(id, mob)
		medium.Add(&e)
	}
	medium.StartRecording()
	medium.Start(0)
	if err := runUntil(ctx, sched, cfg.Duration); err != nil {
		// A torn trace must never escape: the recording stops between
		// scan ticks, so it would be a valid-looking prefix — silently
		// wrong for any run longer than the cut.
		return nil, err
	}
	return medium.TakeRecording(cfg.Duration), nil
}

// ReplaySourceCompatible reports whether src can drive cfg's contact
// process: the trace must be structurally valid, recorded at cfg's scan
// interval, cover at least cfg's horizon, and reference only nodes the
// scenario has. Config.Validate applies it in replay mode; the experiment
// harness's contact cache applies it to persisted traces before serving
// them, so a stale or misfiled cache entry re-records instead of failing
// every cell that touches it. An in-memory *Recording is structurally
// validated here (it may hold anything); a wireless.RecordingView proved
// its structure when it was opened, so only the scenario-fit checks run —
// which is what makes view-driven replay allocation-free per cell.
func ReplaySourceCompatible(cfg Config, src wireless.ReplaySource) error {
	if rec, ok := src.(*wireless.Recording); ok {
		if err := rec.Validate(); err != nil {
			return err
		}
	}
	meta := src.Meta()
	if meta.ScanInterval != cfg.ScanInterval {
		return fmt.Errorf("sim: recording scan interval %v, scenario %v", meta.ScanInterval, cfg.ScanInterval)
	}
	// A shorter horizon replays a prefix of the trace and stays
	// bit-identical to a live run of that horizon; a longer one would
	// freeze contacts in their final recorded state.
	if cfg.Duration > meta.Duration {
		return fmt.Errorf("sim: run duration %v exceeds the recording's %v", cfg.Duration, meta.Duration)
	}
	if src.MaxNode() >= cfg.Vehicles+cfg.Relays {
		return fmt.Errorf("sim: recording references node %d, scenario has %d nodes",
			src.MaxNode(), cfg.Vehicles+cfg.Relays)
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
	windows := rec.Windows()
	contacts := make([]contactplan.Contact, len(windows))
	for i, w := range windows {
		contacts[i] = contactplan.Contact{A: w.A, B: w.B, Start: w.Start, End: w.End}
	}
	return contactplan.New(contacts)
}
