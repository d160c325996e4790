package scenario

import (
	"strings"
	"testing"

	"vdtn/internal/sim"
	"vdtn/internal/units"
)

func TestLoadEmptyGivesPaperDefaults(t *testing.T) {
	c, err := Load([]byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	def := sim.DefaultConfig()
	if c.Vehicles != def.Vehicles || c.Duration != def.Duration || c.TTL != def.TTL ||
		c.Seed != def.Seed || c.Relays != def.Relays || c.PauseLo != def.PauseLo || c.PauseHi != def.PauseHi {
		t.Fatalf("empty file did not inherit defaults: %+v", c)
	}
}

func TestLoadOverrides(t *testing.T) {
	c, err := Load([]byte(`{
		"seed": 7,
		"duration_hours": 6,
		"vehicles": 20,
		"relays": 3,
		"vehicle_buffer_mb": 50,
		"speed_lo_kmh": 20,
		"speed_hi_kmh": 60,
		"rate_mbit": 2,
		"ttl_min": 90,
		"protocol": "spraywait",
		"policy": "lifetime",
		"spray_copies": 8
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if c.Seed != 7 || c.Vehicles != 20 || c.Relays != 3 {
		t.Fatalf("population wrong: %+v", c)
	}
	if c.Duration != units.Hours(6) || c.TTL != units.Minutes(90) {
		t.Fatalf("times wrong: %v, %v", c.Duration, c.TTL)
	}
	if c.VehicleBuffer != units.MB(50) || c.Rate != units.Mbit(2) {
		t.Fatalf("resources wrong: %v, %v", c.VehicleBuffer, float64(c.Rate))
	}
	if c.SpeedLo != units.KmhToMs(20) || c.SpeedHi != units.KmhToMs(60) {
		t.Fatalf("speeds wrong: %v..%v", c.SpeedLo, c.SpeedHi)
	}
	if c.Protocol != sim.ProtoSprayAndWait || c.Policy != sim.PolicyLifetime || c.SprayCopies != 8 {
		t.Fatalf("routing wrong: %v/%v/%d", c.Protocol, c.Policy, c.SprayCopies)
	}
}

func TestLoadErrors(t *testing.T) {
	cases := map[string]string{
		"bad json":         `{`,
		"unknown protocol": `{"protocol": "warp"}`,
		"unknown policy":   `{"policy": "chaos"}`,
		"invalid config":   `{"vehicles": 1}`,
		"bad plan":         `{"contacts": [{"start": 5, "end": 2, "a": 0, "b": 1}]}`,
		"bad script":       `{"script": [{"time_sec": 0, "from": 2, "to": 2, "size_kb": 10}]}`,
	}
	for name, text := range cases {
		if _, err := Load([]byte(text)); err == nil {
			t.Errorf("%s: accepted %s", name, text)
		}
	}
}

func TestLoadContactPlanAndScript(t *testing.T) {
	c, err := Load([]byte(`{
		"vehicles": 3,
		"relays": 0,
		"duration_hours": 1,
		"contacts": [
			{"start": 10, "end": 20, "a": 0, "b": 1},
			{"start": 30, "end": 40, "a": 1, "b": 2}
		],
		"script": [
			{"time_sec": 0, "from": 0, "to": 2, "size_kb": 800}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if c.Plan == nil || c.Plan.Len() != 2 {
		t.Fatalf("plan not loaded: %+v", c.Plan)
	}
	if len(c.Script) != 1 || c.Script[0].Size != units.KB(800) {
		t.Fatalf("script not loaded: %+v", c.Script)
	}
	// And it runs.
	w, err := sim.New(c)
	if err != nil {
		t.Fatal(err)
	}
	r := w.Run()
	if r.Delivered != 1 {
		t.Fatalf("scenario-file run delivered %d", r.Delivered)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	orig := sim.PaperConfig(120, sim.ProtoSprayAndWait, sim.PolicyLifetime, 9)
	orig.Vehicles = 25
	orig.SprayCopies = 6
	orig.Warmup = units.Minutes(10)

	data, err := Save("round-trip", orig)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"round-trip"`) {
		t.Fatal("name not saved")
	}
	back, err := Load(data)
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	if back.Seed != orig.Seed || back.Vehicles != orig.Vehicles ||
		back.TTL != orig.TTL || back.Duration != orig.Duration ||
		back.Protocol != orig.Protocol || back.Policy != orig.Policy ||
		back.SprayCopies != orig.SprayCopies || back.Warmup != orig.Warmup ||
		back.VehicleBuffer != orig.VehicleBuffer || back.Rate != orig.Rate {
		t.Fatalf("round trip drifted:\nin:  %+v\nout: %+v", orig, back)
	}
}

// TestSaveLoadExplicitZeros: seed, relays and the pause bounds take zero
// as a value, not as "use the default", so a config with no relays, seed 0
// and no pauses survives Save and Load.
func TestSaveLoadExplicitZeros(t *testing.T) {
	orig := sim.DefaultConfig()
	orig.Seed = 0
	orig.Relays = 0
	orig.PauseLo, orig.PauseHi = 0, 0

	data, err := Save("zeros", orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Load(data)
	if err != nil {
		t.Fatalf("reload: %v\n%s", err, data)
	}
	if back.Seed != 0 || back.Relays != 0 || back.PauseLo != 0 || back.PauseHi != 0 {
		t.Fatalf("explicit zeros lost: seed %d, relays %d, pauses [%v, %v]\n%s",
			back.Seed, back.Relays, back.PauseLo, back.PauseHi, data)
	}

}

func TestSaveLoadPlanRoundTrip(t *testing.T) {
	c, err := Load([]byte(`{
		"vehicles": 2, "relays": 0, "duration_hours": 1,
		"contacts": [{"start": 1, "end": 2, "a": 0, "b": 1}],
		"script": [{"time_sec": 0, "from": 0, "to": 1, "size_kb": 10}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	data, err := Save("plan", c)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Load(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Plan == nil || back.Plan.Len() != 1 || len(back.Script) != 1 {
		t.Fatal("plan/script lost in round trip")
	}
	// Determinism across the round trip: identical runs.
	r1 := run(t, c)
	r2 := run(t, back)
	if r1 != r2 {
		t.Fatalf("round-tripped scenario runs differently:\n%+v\n%+v", r1, r2)
	}
}

func run(t *testing.T, c sim.Config) sim.Result {
	t.Helper()
	w, err := sim.New(c)
	if err != nil {
		t.Fatal(err)
	}
	return w.Run()
}
