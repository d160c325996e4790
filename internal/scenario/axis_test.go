package scenario

import (
	"testing"

	"vdtn/internal/sim"
)

// TestAxisRegistryBasics: the axis table's lookups, labels and sorted
// listing.
func TestAxisRegistryBasics(t *testing.T) {
	for _, name := range []string{"ttl_min", "vehicles", "relays", "buffer_mb", "rate_mbit", "copies", "range_m", "scan_sec"} {
		a, ok := AxisByName(name)
		if !ok {
			t.Fatalf("built-in axis %s missing", name)
		}
		if a.Label == "" {
			t.Fatalf("axis %s has no label", name)
		}
		if AxisLabel(name) != a.Label {
			t.Fatalf("AxisLabel(%s) mismatch", name)
		}
	}
	if AxisLabel("nonsense") != "nonsense" {
		t.Fatal("AxisLabel does not fall back to the name")
	}
	axes := Axes()
	for i := 1; i < len(axes); i++ {
		if axes[i-1].Name >= axes[i].Name {
			t.Fatal("Axes() not sorted")
		}
	}
	if _, ok := AxisByName("nonsense"); ok {
		t.Fatal("found nonexistent axis")
	}
}

// TestAxisMovesContactsMatchesFingerprint pins the contact-cache contract
// the Axis doc comment promises, for every axis: applying two
// distinct values changes ContactFingerprint exactly when MovesContacts
// says so. A mislabeled future axis — or a fingerprint edit dropping a
// mobility input — would make cached sweeps replay one contact trace
// across cells with genuinely different mobility, so this is the test
// that keeps "declarative" honest.
func TestAxisMovesContactsMatchesFingerprint(t *testing.T) {
	for _, a := range Axes() {
		c1, c2 := sim.DefaultConfig(), sim.DefaultConfig()
		// 3 and 4 are valid, distinct settings for every current axis
		// (≥2 vehicles, positive durations/sizes/rates, warmup < horizon).
		a.Apply(&c1, 3)
		a.Apply(&c2, 4)
		moved := sim.ContactFingerprint(c1) != sim.ContactFingerprint(c2)
		if moved != a.MovesContacts {
			t.Errorf("axis %s: MovesContacts=%v but distinct values %s the fingerprint",
				a.Name, a.MovesContacts, map[bool]string{true: "moved", false: "did not move"}[moved])
		}
		// And against the untouched default, same contract.
		if base := sim.ContactFingerprint(sim.DefaultConfig()); (sim.ContactFingerprint(c1) != base) != a.MovesContacts {
			t.Errorf("axis %s: MovesContacts=%v inconsistent with the default-config fingerprint", a.Name, a.MovesContacts)
		}
	}
}

// TestAxisApplyWritesConfig spot-checks that axes write the fields their
// names promise.
func TestAxisApplyWritesConfig(t *testing.T) {
	c := sim.DefaultConfig()
	mustApply := func(name string, v float64) {
		a, ok := AxisByName(name)
		if !ok {
			t.Fatalf("missing axis %s", name)
		}
		a.Apply(&c, v)
	}
	mustApply("ttl_min", 90)
	mustApply("vehicles", 17)
	mustApply("buffer_mb", 40)
	mustApply("copies", 9)
	if c.TTL != 90*60 {
		t.Fatalf("ttl_min wrote %v", c.TTL)
	}
	if c.Vehicles != 17 {
		t.Fatalf("vehicles wrote %d", c.Vehicles)
	}
	if c.VehicleBuffer != 40e6 || c.RelayBuffer != 200e6 {
		t.Fatalf("buffer_mb wrote %d/%d, want the paper's 1:5 provisioning", c.VehicleBuffer, c.RelayBuffer)
	}
	if c.SprayCopies != 9 {
		t.Fatalf("copies wrote %d", c.SprayCopies)
	}
}
