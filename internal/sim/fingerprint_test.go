package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"vdtn/internal/contactplan"
	"vdtn/internal/roadmap"
	"vdtn/internal/routing"
	"vdtn/internal/trace"
	"vdtn/internal/units"
	"vdtn/internal/wireless"
	"vdtn/internal/xrand"
)

func TestContactFingerprintStable(t *testing.T) {
	a := ContactFingerprint(DefaultConfig())
	b := ContactFingerprint(DefaultConfig())
	if a != b {
		t.Fatalf("fingerprint not deterministic: %s vs %s", a, b)
	}
	if len(a) != 16 {
		t.Fatalf("fingerprint %q not 16 hex chars", a)
	}
}

// TestContactFingerprintPinned pins the exact fingerprint of the paper's
// default scenario. Persisted cache files are named by this value, so a
// silent change to the hash — reordered fields, a new input, a schema bump
// without a migration plan — would orphan every trace ever written to a
// cache directory. Changing this constant is allowed, but must be a
// deliberate decision that accepts the cache invalidation.
func TestContactFingerprintPinned(t *testing.T) {
	if fp := ContactFingerprint(DefaultConfig()); fp != "7738a602549c75fc" {
		t.Fatalf("default-scenario fingerprint moved to %s: every persisted cache file is now orphaned; "+
			"if the hash change is intentional, update this pin", fp)
	}
}

// TestContactFingerprintSeparates is the cache-keying property test: every
// mutation of a contact-process input — including each seed in a sweep —
// must move the key, so cache hits can never cross seeds or scenarios.
func TestContactFingerprintSeparates(t *testing.T) {
	mutations := map[string]func(*Config){
		"seed":      func(c *Config) { c.Seed++ },
		"seed far":  func(c *Config) { c.Seed += 1 << 40 },
		"duration":  func(c *Config) { c.Duration *= 2 },
		"vehicles":  func(c *Config) { c.Vehicles++ },
		"relays":    func(c *Config) { c.Relays++ },
		"speed lo":  func(c *Config) { c.SpeedLo *= 1.1 },
		"speed hi":  func(c *Config) { c.SpeedHi *= 1.1 },
		"pause lo":  func(c *Config) { c.PauseLo += 1 },
		"pause hi":  func(c *Config) { c.PauseHi += 1 },
		"range":     func(c *Config) { c.Range += 5 },
		"scan":      func(c *Config) { c.ScanInterval *= 2 },
		"map":       func(c *Config) { c.Map = roadmap.Grid(5, 5, 300) },
		"map shape": func(c *Config) { c.Map = roadmap.Grid(5, 5, 301) },
	}
	seen := map[string]string{"base": ContactFingerprint(DefaultConfig())}
	for name, mutate := range mutations {
		c := DefaultConfig()
		mutate(&c)
		fp := ContactFingerprint(c)
		for other, otherFP := range seen {
			if fp == otherFP {
				t.Errorf("%s collides with %s: %s", name, other, fp)
			}
		}
		seen[name] = fp
	}
}

// TestContactFingerprintDistinctTriples sweeps a grid of (map, mobility,
// seed) triples and requires pairwise-distinct keys.
func TestContactFingerprintDistinctTriples(t *testing.T) {
	maps := []*roadmap.Graph{nil, roadmap.Grid(4, 4, 200), roadmap.Grid(6, 3, 350)}
	seen := make(map[string]string)
	for mi, m := range maps {
		for vehicles := 10; vehicles <= 30; vehicles += 10 {
			for seed := uint64(1); seed <= 5; seed++ {
				c := DefaultConfig()
				c.Map = m
				c.Vehicles = vehicles
				c.Seed = seed
				key := ContactFingerprint(c)
				label := fmt.Sprintf("(map %d, %d vehicles, seed %d)", mi, vehicles, seed)
				if prev, dup := seen[key]; dup {
					t.Fatalf("triple %s collides with %s on key %s", label, prev, key)
				}
				seen[key] = label
			}
		}
	}
	if len(seen) != len(maps)*3*5 {
		t.Fatalf("expected %d distinct keys, got %d", len(maps)*3*5, len(seen))
	}
}

// TestContactFingerprintIgnoresNonMobilityFields: sweep-variable fields
// that cannot move a vehicle must share the key — that sharing is the
// entire speedup.
func TestContactFingerprintIgnoresNonMobilityFields(t *testing.T) {
	base := ContactFingerprint(DefaultConfig())
	mutations := map[string]func(*Config){
		"ttl":       func(c *Config) { c.TTL = units.Minutes(180) },
		"protocol":  func(c *Config) { c.Protocol = ProtoMaxProp },
		"policy":    func(c *Config) { c.Policy = PolicyLifetime },
		"rate":      func(c *Config) { c.Rate = units.Mbit(1) },
		"buffers":   func(c *Config) { c.VehicleBuffer = units.MB(10) },
		"traffic":   func(c *Config) { c.MsgIntervalLo, c.MsgIntervalHi = 5, 10 },
		"msg sizes": func(c *Config) { c.MsgSizeLo, c.MsgSizeHi = units.KB(1), units.KB(2) },
		"warmup":    func(c *Config) { c.Warmup = units.Minutes(30) },
		"copies":    func(c *Config) { c.SprayCopies = 4 },
	}
	for name, mutate := range mutations {
		c := DefaultConfig()
		mutate(&c)
		if fp := ContactFingerprint(c); fp != base {
			t.Errorf("%s moved the fingerprint: %s vs %s — cells would stop sharing traces", name, fp, base)
		}
	}
}

// TestContactFingerprintCoversContactConfig ties the fingerprint to the
// one declaration of what a contact trace depends on: for every Config
// field, perturbing it moves ContactFingerprint exactly when it moves
// contactConfig. A field kept by contactConfig but not hashed would let
// the contact cache serve one scenario's trace to another; one hashed but
// not kept would record a trace other than the one its key names.
func TestContactFingerprintCoversContactConfig(t *testing.T) {
	plan, err := contactplan.New([]contactplan.Contact{{Start: 0, End: 1, A: 0, B: 1}})
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultConfig()
	baseFP, baseContact := ContactFingerprint(base), contactConfig(base)
	fields := reflect.TypeOf(base)
	for i := range fields.NumField() {
		name := fields.Field(i).Name
		c := base
		// Pointer, slice and func fields get an explicit non-zero value;
		// scalars are bumped by one.
		switch v := reflect.ValueOf(&c).Elem().Field(i); name {
		case "Map":
			c.Map = roadmap.Grid(5, 5, 300)
		case "Plan":
			c.Plan = plan
		case "ReplaySource":
			c.ReplaySource = new(wireless.RecordingView)
		case "Script":
			c.Script = []ScriptedMessage{{Time: 1, From: 0, To: 1, Size: 1}}
		case "NewRouter":
			c.NewRouter = func(int, *xrand.Rand) routing.Router { return nil }
		case "Trace":
			c.Trace = func(trace.Event) {}
		default:
			switch v.Kind() {
			case reflect.Int, reflect.Int64:
				v.SetInt(v.Int() + 1)
			case reflect.Uint64:
				v.SetUint(v.Uint() + 1)
			case reflect.Float64:
				v.SetFloat(v.Float() + 1)
			default:
				t.Fatalf("field %s has kind %s: give it an explicit perturbation here", name, v.Kind())
			}
		}
		if reflect.DeepEqual(c, base) {
			t.Fatalf("perturbing %s left the config unchanged", name)
		}
		contact := contactConfig(c)
		// Code cannot be hashed, so no func field may reach the contact
		// process; reflect.DeepEqual below relies on their being nil.
		if contact.NewRouter != nil || contact.Trace != nil {
			t.Fatalf("contactConfig keeps a func field after perturbing %s", name)
		}
		movedContact := !reflect.DeepEqual(contact, baseContact)
		movedFP := ContactFingerprint(c) != baseFP
		if movedContact != movedFP {
			t.Errorf("perturbing %s: contactConfig moved %v, ContactFingerprint moved %v", name, movedContact, movedFP)
		}
	}
}

// TestRecordContactsIgnoresNonContactFields: the recording pass validates
// only the fields the contact process reads, so a config whose TTL and
// message bounds are invalid records byte for byte the trace of its valid
// twin — one bad cell cannot poison the trace its group shares — while an
// invalid contact field still fails.
func TestRecordContactsIgnoresNonContactFields(t *testing.T) {
	valid := replayConfig(3)
	bad := valid
	bad.TTL = -1
	bad.MsgIntervalLo, bad.MsgIntervalHi = 10, 5
	bad.MsgSizeLo, bad.MsgSizeHi = 0, -1
	if bad.Validate() == nil {
		t.Fatal("the perturbed config validates; the test needs an invalid one")
	}
	want, err := RecordContacts(valid)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RecordContacts(bad)
	if err != nil {
		t.Fatalf("invalid non-contact fields failed the recording pass: %v", err)
	}
	if !bytes.Equal(wireless.EncodeBinary(got), wireless.EncodeBinary(want)) {
		t.Fatal("invalid non-contact fields changed the recorded trace")
	}

	noRange := valid
	noRange.Range = 0
	if _, err := RecordContacts(noRange); err == nil {
		t.Fatal("a non-positive radio range was recorded")
	}
}

// TestRecordContactsRefusesPlanAndReplay: a contact-plan or replay
// configuration has no mobility-driven contact process to record.
func TestRecordContactsRefusesPlanAndReplay(t *testing.T) {
	rec, err := RecordContacts(replayConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := RecordingPlan(rec)
	if err != nil {
		t.Fatal(err)
	}
	withPlan, withReplay := replayConfig(1), replayConfig(1)
	withPlan.Plan = plan
	withReplay.ReplaySource = viewOf(t, rec)
	for name, c := range map[string]Config{"plan": withPlan, "replay": withReplay} {
		if _, err := RecordContacts(c); err == nil {
			t.Errorf("%s config recorded", name)
		}
	}
}
