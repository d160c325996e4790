package sim

import (
	"reflect"
	"testing"

	"vdtn/internal/roadmap"
	"vdtn/internal/trace"
	"vdtn/internal/units"
	"vdtn/internal/wireless"
)

// replayConfig is a deliberately tight scenario — small buffers, frequent
// messages — so every protocol exercises drops, aborts and TTL expiry, the
// code paths where an ordering divergence between live and replayed runs
// would surface.
func replayConfig(seed uint64) Config {
	c := DefaultConfig()
	c.Seed = seed
	c.Duration = units.Minutes(40)
	c.Map = roadmap.Grid(4, 4, 250)
	c.Vehicles = 8
	c.Relays = 2
	c.VehicleBuffer = units.MB(5)
	c.RelayBuffer = units.MB(10)
	c.MsgIntervalLo = 8
	c.MsgIntervalHi = 16
	c.TTL = units.Minutes(15)
	return c
}

// runTraced runs cfg with an in-memory trace log attached.
func runTraced(t *testing.T, cfg Config) (Result, []trace.Event) {
	t.Helper()
	var lg trace.Log
	var w *World
	// Piggyback the medium's adjacency invariant on every
	// contact transition, so every protocol × policy × contact-source
	// combination that flows through here audits the adjacency cache at
	// each point it changes.
	cfg.Trace = func(ev trace.Event) {
		lg.Append(ev)
		if ev.Kind == trace.ContactUp || ev.Kind == trace.ContactDown {
			if err := w.medium.CheckInvariants(); err != nil {
				t.Fatalf("adjacency invariant broken at t=%v after %v(%d,%d): %v",
					ev.Time, ev.Kind, ev.A, ev.B, err)
			}
		}
	}
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := w.Run()
	if err := w.medium.CheckInvariants(); err != nil {
		t.Fatalf("adjacency invariant broken at end of run: %v", err)
	}
	return res, lg.Events()
}

// TestReplayEquivalence is the record/replay cache's headline guarantee:
// for every protocol × policy pair, a run replaying the trace
// RecordContacts produced through a view opened from its file — the path
// a sweep takes against a persisted contact cache — is bit-identical, full
// Result and full event trace, to the live run.
func TestReplayEquivalence(t *testing.T) {
	protocols, policies := protoPolicyPairs()
	for _, proto := range protocols {
		for _, pol := range policies {
			t.Run(proto.String()+"/"+pol.String(), func(t *testing.T) {
				base := replayConfig(7)
				base.Protocol = proto
				base.Policy = pol

				liveRes, liveEvents := runTraced(t, base)

				rec, err := RecordContacts(base)
				if err != nil {
					t.Fatal(err)
				}
				if len(rec.Transitions) == 0 {
					t.Fatal("recorded no contact transitions")
				}

				repCfg := base
				repCfg.ReplaySource = openViewOf(t, rec)
				repRes, repEvents := runTraced(t, repCfg)
				if liveRes != repRes {
					t.Fatalf("replay diverged from live run:\nlive:   %+v\nreplay: %+v", liveRes, repRes)
				}
				if !reflect.DeepEqual(liveEvents, repEvents) {
					for i := range liveEvents {
						if i >= len(repEvents) || liveEvents[i] != repEvents[i] {
							t.Fatalf("event %d diverged: live %+v, replay %+v (live %d events, replay %d)",
								i, liveEvents[i], eventAt(repEvents, i), len(liveEvents), len(repEvents))
						}
					}
					t.Fatalf("replay trace has %d extra events", len(repEvents)-len(liveEvents))
				}
			})
		}
	}
}

func eventAt(events []trace.Event, i int) any {
	if i < len(events) {
		return events[i]
	}
	return "missing"
}

// TestRecordContactsMatchesFullRun pins the contact cache's producer
// contract: the contacts-only mobility pass records exactly the contact
// transitions a complete live simulation fires — same times, pairs,
// directions and order — because the contact process is independent of
// traffic and routing.
func TestRecordContactsMatchesFullRun(t *testing.T) {
	for _, seed := range []uint64{1, 2, 5} {
		cfg := replayConfig(seed)
		_, events := runTraced(t, cfg)
		var live []wireless.Transition
		for _, ev := range events {
			if ev.Kind == trace.ContactUp || ev.Kind == trace.ContactDown {
				live = append(live, wireless.Transition{Time: ev.Time, A: ev.A, B: ev.B, Up: ev.Kind == trace.ContactUp})
			}
		}

		rec, err := RecordContacts(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Duration != cfg.Duration || rec.ScanInterval != cfg.ScanInterval {
			t.Fatalf("seed %d: recording spans %vs at %vs ticks, scenario %vs at %vs",
				seed, rec.Duration, rec.ScanInterval, cfg.Duration, cfg.ScanInterval)
		}
		if len(live) == 0 {
			t.Fatalf("seed %d: live run fired no contact transitions", seed)
		}
		if !reflect.DeepEqual(live, rec.Transitions) {
			t.Fatalf("seed %d: contacts-only pass diverged from full run: %d vs %d transitions",
				seed, len(rec.Transitions), len(live))
		}
	}
}

// TestReplayAcrossProtocols is the cache's sharing property: one recording
// taken under one protocol drives bit-identical contact processes under
// every other protocol (contacts don't depend on routing).
func TestReplayAcrossProtocols(t *testing.T) {
	cfg := replayConfig(3)
	rec, err := RecordContacts(cfg)
	if err != nil {
		t.Fatal(err)
	}
	view := viewOf(t, rec)
	var contacts uint64
	for i, proto := range []ProtocolKind{ProtoEpidemic, ProtoMaxProp, ProtoPRoPHET} {
		c := cfg
		c.Protocol = proto
		c.ReplaySource = view
		live := cfg
		live.Protocol = proto
		liveRes, liveEvents := runTraced(t, live)
		repRes, repEvents := runTraced(t, c)
		if liveRes != repRes || !reflect.DeepEqual(liveEvents, repEvents) {
			t.Fatalf("%v: shared-recording replay diverged from live run", proto)
		}
		if i == 0 {
			contacts = repRes.Contacts
		} else if repRes.Contacts != contacts {
			t.Fatalf("%v: contact count %d differs across protocols (want %d)", proto, repRes.Contacts, contacts)
		}
	}
}

// TestRecordingFormatRoundTripsThroughReplay: a recording that has been
// persisted and opened again drives the same replay as a view of its
// freshly encoded bytes.
func TestRecordingFormatRoundTripsThroughReplay(t *testing.T) {
	cfg := replayConfig(11)
	rec, err := RecordContacts(cfg)
	if err != nil {
		t.Fatal(err)
	}
	persisted := openViewOf(t, rec)
	if !reflect.DeepEqual(rec, persisted.Materialize()) {
		t.Fatal("recording changed across EncodeBinary/OpenRecordingView")
	}

	cfg.ReplaySource = persisted
	resPersisted, _ := runTraced(t, cfg)
	cfg.ReplaySource = viewOf(t, rec)
	resFresh, _ := runTraced(t, cfg)
	if resPersisted != resFresh {
		t.Fatal("persisted recording replayed differently from the fresh one")
	}
}

// TestRecordingPlan checks the recording → contact-plan export: every
// recorded window survives, open contacts are closed at the horizon, and
// the plan runs.
func TestRecordingPlan(t *testing.T) {
	cfg := replayConfig(4)
	rec, err := RecordContacts(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := RecordingPlan(rec)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Len() == 0 {
		t.Fatal("empty plan from a non-empty recording")
	}
	if plan.Horizon() > rec.Duration {
		t.Fatalf("plan horizon %v beyond recording duration %v", plan.Horizon(), rec.Duration)
	}
	planCfg := cfg
	planCfg.Plan = plan
	w, err := New(planCfg)
	if err != nil {
		t.Fatal(err)
	}
	res := w.Run()
	if res.Contacts == 0 {
		t.Fatal("plan-driven re-run saw no contacts")
	}
}

// TestReplayPrefixEquivalence: replaying a long recording over a shorter
// horizon equals a live run of that shorter horizon — contact traces are
// prefix-causal, which is why Validate allows Duration <= Recording.Duration.
func TestReplayPrefixEquivalence(t *testing.T) {
	long := replayConfig(13) // 40 minutes
	rec, err := RecordContacts(long)
	if err != nil {
		t.Fatal(err)
	}

	short := replayConfig(13)
	short.Duration = long.Duration / 2
	liveRes, liveEvents := runTraced(t, short)

	short.ReplaySource = viewOf(t, rec)
	repRes, repEvents := runTraced(t, short)
	if liveRes != repRes || !reflect.DeepEqual(liveEvents, repEvents) {
		t.Fatalf("prefix replay diverged from the short live run:\nlive:   %+v\nreplay: %+v", liveRes, repRes)
	}
}

// TestReplayConfigValidation covers the ReplaySource arms of Validate.
func TestReplayConfigValidation(t *testing.T) {
	rec, err := RecordContacts(replayConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := RecordingPlan(rec)
	if err != nil {
		t.Fatal(err)
	}
	view := viewOf(t, rec)
	cases := map[string]func(*Config){
		"replay with plan": func(c *Config) {
			c.ReplaySource = view
			c.Plan = plan
		},
		"replay scan mismatch": func(c *Config) {
			c.ReplaySource = view
			c.ScanInterval = rec.ScanInterval * 2
		},
		"replay node overflow": func(c *Config) {
			c.ReplaySource = view
			c.Vehicles = 2
			c.Relays = 0
		},
		"replay beyond recording horizon": func(c *Config) {
			c.ReplaySource = view
			c.Duration = rec.Duration * 2
		},
	}
	for name, mutate := range cases {
		c := replayConfig(1)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: config accepted", name)
		}
	}

	ok := replayConfig(1)
	ok.ReplaySource = view
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid replay config rejected: %v", err)
	}
}
