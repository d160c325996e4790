package sim

import (
	"fmt"
	"slices"
	"testing"

	"vdtn/internal/mobility"
	"vdtn/internal/roadmap"
	"vdtn/internal/units"
	"vdtn/internal/xrand"
)

// quickConfig is a scaled-down scenario for fast integration tests:
// a small grid, 12 vehicles, 2 relays, 2 simulated hours.
func quickConfig(seed uint64) Config {
	c := DefaultConfig()
	c.Seed = seed
	c.Duration = units.Hours(2)
	c.Map = roadmap.Grid(6, 6, 300)
	c.Vehicles = 12
	c.Relays = 2
	c.VehicleBuffer = units.MB(20)
	c.RelayBuffer = units.MB(50)
	c.TTL = units.Minutes(45)
	return c
}

func TestConfigValidateRejectsBadConfigs(t *testing.T) {
	mutations := map[string]func(*Config){
		"zero duration":       func(c *Config) { c.Duration = 0 },
		"one vehicle":         func(c *Config) { c.Vehicles = 1 },
		"negative relays":     func(c *Config) { c.Relays = -1 },
		"zero buffer":         func(c *Config) { c.VehicleBuffer = 0 },
		"zero relay buffer":   func(c *Config) { c.RelayBuffer = 0 },
		"inverted speeds":     func(c *Config) { c.SpeedLo, c.SpeedHi = 20, 10 },
		"negative pause":      func(c *Config) { c.PauseLo = -1 },
		"zero range":          func(c *Config) { c.Range = 0 },
		"zero rate":           func(c *Config) { c.Rate = 0 },
		"zero scan":           func(c *Config) { c.ScanInterval = 0 },
		"bad msg interval":    func(c *Config) { c.MsgIntervalLo = 0 },
		"bad msg size":        func(c *Config) { c.MsgSizeLo = 0 },
		"zero ttl":            func(c *Config) { c.TTL = 0 },
		"zero spray copies":   func(c *Config) { c.Protocol = ProtoSprayAndWait; c.SprayCopies = 0 },
		"zero vanilla copies": func(c *Config) { c.Protocol = ProtoSprayAndWaitVanilla; c.SprayCopies = 0 },
		"unknown protocol":    func(c *Config) { c.Protocol = ProtocolKind(len(protocols)) },
		"negative protocol":   func(c *Config) { c.Protocol = -1 },
		"unknown policy":      func(c *Config) { c.Policy = PolicyKind(len(policies)) },
		"negative policy":     func(c *Config) { c.Policy = -1 },
	}
	for name, mutate := range mutations {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: config accepted", name)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

func TestWorldAssembly(t *testing.T) {
	w, err := New(quickConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if w.NodeCount() != 14 {
		t.Fatalf("NodeCount = %d, want 14", w.NodeCount())
	}
	for i := 0; i < 12; i++ {
		if w.Node(i).Kind() != Vehicle {
			t.Fatalf("node %d is %v, want vehicle", i, w.Node(i).Kind())
		}
	}
	for i := 12; i < 14; i++ {
		if w.Node(i).Kind() != Relay {
			t.Fatalf("node %d is %v, want relay", i, w.Node(i).Kind())
		}
	}
	for i := range w.NodeCount() {
		if id := w.Node(i).ID(); id != i {
			t.Fatalf("node %d has id %d", i, id)
		}
	}
}

// TestMobilityModelsAssembly: the contact pass's position sources are a
// map walk per vehicle and, per relay, a stationary model on a map vertex.
func TestMobilityModelsAssembly(t *testing.T) {
	cfg := quickConfig(1)
	g := cfg.Map
	mobs := mobilityModels(cfg, g, xrand.NewSource(cfg.Seed))
	if len(mobs) != 14 {
		t.Fatalf("%d mobility models, want 14", len(mobs))
	}
	for i := 0; i < 12; i++ {
		if _, ok := mobs[i].(*mobility.MapWalk); !ok {
			t.Fatalf("vehicle %d moves by %T, want *mobility.MapWalk", i, mobs[i])
		}
	}
	for i := 12; i < 14; i++ {
		s, ok := mobs[i].(mobility.Stationary)
		if !ok {
			t.Fatalf("relay %d moves by %T, want mobility.Stationary", i, mobs[i])
		}
		if g.Vertex(g.NearestVertex(s.At)).Dist(s.At) > 1e-6 {
			t.Fatalf("relay %d not on a map vertex: %v", i, s.At)
		}
	}
}

// TestWorldRejectsInvalidConfig: New reports an invalid config as an
// error; a protocol or policy kind outside the tables is one, not a panic
// while the routers are built.
func TestWorldRejectsInvalidConfig(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"no vehicles": func(c *Config) { c.Vehicles = 0 },
		"protocol 99": func(c *Config) { c.Protocol = 99 },
		"policy 99":   func(c *Config) { c.Policy = 99 },
	} {
		c := DefaultConfig()
		mutate(&c)
		if _, err := New(c); err == nil {
			t.Errorf("%s: New accepted invalid config", name)
		}
	}
}

func TestRunDeterminism(t *testing.T) {
	r1 := mustRun(t, quickConfig(42))
	r2 := mustRun(t, quickConfig(42))
	if r1 != r2 {
		t.Fatalf("same seed, different results:\n%+v\n%+v", r1, r2)
	}
}

func TestRunSeedsDiffer(t *testing.T) {
	r1 := mustRun(t, quickConfig(1))
	r2 := mustRun(t, quickConfig(2))
	if r1.Created == r2.Created && r1.Delivered == r2.Delivered &&
		r1.AvgDelay == r2.AvgDelay && r1.Contacts == r2.Contacts {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestEpidemicDeliversMessages(t *testing.T) {
	r := mustRun(t, quickConfig(7))
	if r.Created < 100 {
		t.Fatalf("only %d messages created in 2h (expected ~300)", r.Created)
	}
	if r.Delivered == 0 {
		t.Fatal("epidemic delivered nothing")
	}
	if r.DeliveryProbability <= 0 || r.DeliveryProbability > 1 {
		t.Fatalf("delivery probability %v out of range", r.DeliveryProbability)
	}
	if r.Contacts == 0 {
		t.Fatal("no contacts in a 2h urban scenario")
	}
}

func TestDelaysBoundedByTTL(t *testing.T) {
	c := quickConfig(3)
	r := mustRun(t, c)
	if r.Delivered == 0 {
		t.Skip("no deliveries to check")
	}
	if r.AvgDelay <= 0 {
		t.Fatalf("AvgDelay = %v", r.AvgDelay)
	}
	if r.P95Delay > c.TTL {
		t.Fatalf("p95 delay %v exceeds TTL %v: expired messages delivered", r.P95Delay, c.TTL)
	}
}

func TestNoDuplicateDeliveries(t *testing.T) {
	r := mustRun(t, quickConfig(11))
	if r.DeliveredDuplicate != 0 {
		t.Fatalf("%d duplicate deliveries; destination dedup broken", r.DeliveredDuplicate)
	}
}

func TestBuffersNeverExceedCapacity(t *testing.T) {
	c := quickConfig(5)
	w, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	w.Run()
	for i := 0; i < w.NodeCount(); i++ {
		n := w.Node(i)
		if n.Buffer().Used() > n.Buffer().Capacity() {
			t.Fatalf("node %d buffer over capacity: %v > %v",
				i, n.Buffer().Used(), n.Buffer().Capacity())
		}
	}
}

func TestShortTTLExpires(t *testing.T) {
	c := quickConfig(9)
	c.TTL = units.Minutes(5) // most messages die before delivery
	r := mustRun(t, c)
	if r.Expired == 0 {
		t.Fatal("no TTL expiries with a 5-minute TTL")
	}
}

func TestSmallBufferDrops(t *testing.T) {
	c := quickConfig(13)
	c.VehicleBuffer = units.MB(4) // ~3 messages worth
	c.RelayBuffer = units.MB(4)
	r := mustRun(t, c)
	if r.Dropped == 0 {
		t.Fatal("no overflow drops with 4 MB buffers under epidemic flooding")
	}
}

func TestAllProtocolsRun(t *testing.T) {
	protos := []ProtocolKind{
		ProtoEpidemic, ProtoSprayAndWait, ProtoSprayAndWaitVanilla,
		ProtoMaxProp, ProtoPRoPHET, ProtoDirectDelivery, ProtoFirstContact,
	}
	for _, p := range protos {
		c := quickConfig(17)
		c.Protocol = p
		r := mustRun(t, c)
		if r.Created == 0 {
			t.Fatalf("%v: no messages created", p)
		}
		if r.Delivered == 0 {
			t.Errorf("%v: delivered nothing in 2h (suspicious)", p)
		}
	}
}

func TestEpidemicBeatsDirectDelivery(t *testing.T) {
	// Epidemic replication must dominate the zero-replication baseline on
	// delivery ratio for the same scenario and seed.
	direct := quickConfig(21)
	direct.Protocol = ProtoDirectDelivery
	epi := quickConfig(21)
	epi.Protocol = ProtoEpidemic

	rd := mustRun(t, direct)
	re := mustRun(t, epi)
	if re.DeliveryProbability < rd.DeliveryProbability {
		t.Fatalf("epidemic (%v) below direct delivery (%v)",
			re.DeliveryProbability, rd.DeliveryProbability)
	}
}

func TestPolicyVariantsRun(t *testing.T) {
	for _, pol := range []PolicyKind{PolicyFIFOFIFO, PolicyRandomFIFO, PolicyLifetime} {
		c := quickConfig(23)
		c.Policy = pol
		r := mustRun(t, c)
		if r.Delivered == 0 {
			t.Errorf("%v: delivered nothing", pol)
		}
	}
}

// TestPolicyKindNamesMatchCore pins every policy kind's report name and
// schema key, in table order, and checks that the name is the one the
// core policy pair it builds reports, built on a real stream.
func TestPolicyKindNamesMatchCore(t *testing.T) {
	want := [][2]string{
		{"FIFO-FIFO", "fifo"},
		{"Random-FIFO", "random"},
		{"LifetimeDESC-LifetimeASC", "lifetime"},
		{"SizeASC-SizeDESC", "size"},
		{"HopASC-MOFO", "hopmofo"},
		{"FIFO-OldestAge", "oldestage"},
	}
	_, kinds := protoPolicyPairs()
	if len(kinds) != len(want) {
		t.Fatalf("%d policy kinds, want %d", len(kinds), len(want))
	}
	for i, k := range kinds {
		if got := [2]string{k.String(), k.Key()}; got != want[i] {
			t.Errorf("PolicyKind %d = %q, want %q", i, got, want[i])
		}
		if got := policies[k].build(xrand.New(1)).Name(); k.String() != got {
			t.Errorf("PolicyKind %q builds policy %q", k, got)
		}
		if p, ok := ParsePolicy(k.Key()); !ok || p != k {
			t.Errorf("ParsePolicy(%q) = %v, %v", k.Key(), p, ok)
		}
	}
	if _, ok := ParsePolicy("FIFO-FIFO"); ok {
		t.Error("ParsePolicy resolved a report name")
	}
	if got := PolicyKeys(); !slices.IsSorted(got) || len(got) != len(want) {
		t.Errorf("PolicyKeys() = %v", got)
	}
}

// TestProtocolKindNamesAndKeys pins every protocol kind's report name and
// schema key, in table order, and their lookups.
func TestProtocolKindNamesAndKeys(t *testing.T) {
	want := [][2]string{
		{"Epidemic", "epidemic"},
		{"SprayAndWait", "spraywait"},
		{"SprayAndWaitVanilla", "spraywaitvanilla"},
		{"MaxProp", "maxprop"},
		{"PRoPHET", "prophet"},
		{"DirectDelivery", "direct"},
		{"FirstContact", "firstcontact"},
	}
	kinds, _ := protoPolicyPairs()
	if len(kinds) != len(want) {
		t.Fatalf("%d protocol kinds, want %d", len(kinds), len(want))
	}
	for i, k := range kinds {
		if got := [2]string{k.String(), k.Key()}; got != want[i] {
			t.Errorf("ProtocolKind %d = %q, want %q", i, got, want[i])
		}
		if p, ok := ParseProtocol(k.Key()); !ok || p != k {
			t.Errorf("ParseProtocol(%q) = %v, %v", k.Key(), p, ok)
		}
	}
	if _, ok := ParseProtocol("Epidemic"); ok {
		t.Error("ParseProtocol resolved a report name")
	}
	if got := ProtocolKeys(); !slices.IsSorted(got) || len(got) != len(want) {
		t.Errorf("ProtocolKeys() = %v", got)
	}
	if got, want := ProtocolKind(len(want)).String(), fmt.Sprintf("ProtocolKind(%d)", len(want)); got != want {
		t.Errorf("out-of-range String() = %q, want %q", got, want)
	}
	if ProtocolKind(-1).Key() != "" || PolicyKind(-1).Key() != "" {
		t.Error("an out-of-range kind has a schema key")
	}
}

func TestRunTwicePanics(t *testing.T) {
	w, err := New(quickConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	w.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("second Run did not panic")
		}
	}()
	w.Run()
}

func TestTransferAccounting(t *testing.T) {
	r := mustRun(t, quickConfig(29))
	if r.TransfersStarted != r.TransfersCompleted+r.TransfersAborted {
		// At the horizon, an in-flight transfer may be neither; allow a
		// gap of at most the node count.
		gap := r.TransfersStarted - r.TransfersCompleted - r.TransfersAborted
		if gap > uint64(14/2) {
			t.Fatalf("transfer accounting leak: started %d, completed %d, aborted %d",
				r.TransfersStarted, r.TransfersCompleted, r.TransfersAborted)
		}
	}
	if uint64(r.Aborted) != r.TransfersAborted {
		t.Fatalf("ledger aborts %d != medium aborts %d", r.Aborted, r.TransfersAborted)
	}
}

func TestLabel(t *testing.T) {
	c := PaperConfig(90, ProtoEpidemic, PolicyLifetime, 1)
	if got := c.Label(); got != "Epidemic/LifetimeDESC-LifetimeASC ttl=1h30m" {
		t.Fatalf("Label = %q", got)
	}
	c2 := PaperConfig(60, ProtoMaxProp, PolicyFIFOFIFO, 1)
	if got := c2.Label(); got != "MaxProp ttl=1h00m" {
		t.Fatalf("MaxProp label = %q", got)
	}
}

func mustRun(t *testing.T, c Config) Result {
	t.Helper()
	w, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	return w.Run()
}

func BenchmarkQuickScenario(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := quickConfig(uint64(i + 1))
		w, err := New(c)
		if err != nil {
			b.Fatal(err)
		}
		w.Run()
	}
}
