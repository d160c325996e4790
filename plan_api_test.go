package vdtn_test

import (
	"strings"
	"testing"

	"vdtn"
	"vdtn/internal/units"
)

// These tests cover the public contact-plan, scripted-traffic and tracing
// API end to end, the way a downstream user would drive them.

func TestPublicContactPlanScenario(t *testing.T) {
	plan, err := vdtn.NewContactPlan([]vdtn.Contact{
		{A: 0, B: 1, Start: 10, End: 60},
		{A: 1, B: 2, Start: 120, End: 180},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := vdtn.DefaultConfig()
	cfg.Plan = plan
	cfg.Vehicles = 3
	cfg.Relays = 0
	cfg.Duration = units.Hours(1)
	cfg.TTL = units.Minutes(30)
	cfg.Script = []vdtn.ScriptedMessage{
		{Time: 0, From: 0, To: 2, Size: units.MB(1)},
	}

	tracker := vdtn.NewTraceTracker()
	cfg.Trace = tracker.Emit

	r, err := vdtn.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Delivered != 1 {
		t.Fatalf("delivered %d, want 1 (via relay hop)", r.Delivered)
	}

	a := tracker.Analysis(cfg.Duration)
	if a.Delivered != 1 || a.Created != 1 {
		t.Fatalf("analysis: %+v", a)
	}
	path := a.DeliveryPath(1)
	if len(path) != 3 || path[0] != 0 || path[1] != 1 || path[2] != 2 {
		t.Fatalf("delivery path = %v, want [0 1 2]", path)
	}
	if n := a.Counts[vdtn.TraceContactUp]; n != 2 {
		t.Fatalf("traced %d contact ups, want 2", n)
	}
	if pairs := a.TopPairs(1); len(pairs) != 1 {
		t.Fatalf("TopPairs = %v", pairs)
	}
}

func TestPublicParseContactPlan(t *testing.T) {
	plan, err := vdtn.ParseContactPlan("# demo\n5 25 0 1\n")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Len() != 1 || plan.Horizon() != 25 {
		t.Fatalf("plan = %d windows, horizon %v", plan.Len(), plan.Horizon())
	}
	if _, err := vdtn.ParseContactPlan("garbage"); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestPublicTraceWriter(t *testing.T) {
	var sb strings.Builder
	tw := vdtn.NewTraceWriter(&sb)
	cfg := smallConfig(4)
	cfg.Trace = tw.Emit
	if _, err := vdtn.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if tw.Err() != nil {
		t.Fatal(tw.Err())
	}
	out := sb.String()
	if !strings.HasPrefix(out, "time\tkind\ta\tb\tmsg") {
		t.Fatalf("TSV header missing:\n%.100s", out)
	}
	if !strings.Contains(out, "contact_up") || !strings.Contains(out, "created") {
		t.Fatal("expected event kinds missing from stream")
	}
}
