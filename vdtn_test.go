package vdtn_test

import (
	"testing"

	"vdtn"
	"vdtn/internal/roadmap"
	"vdtn/internal/units"
)

// smallConfig shrinks the paper scenario for fast public-API tests.
func smallConfig(seed uint64) vdtn.Config {
	cfg := vdtn.PaperConfig(30, vdtn.ProtoEpidemic, vdtn.PolicyLifetime, seed)
	cfg.Duration = units.Hours(1)
	cfg.Map = roadmap.Grid(5, 5, 300)
	cfg.Vehicles = 10
	cfg.Relays = 1
	cfg.VehicleBuffer = units.MB(20)
	cfg.RelayBuffer = units.MB(40)
	return cfg
}

func TestPublicRun(t *testing.T) {
	r, err := vdtn.Run(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if r.Created == 0 {
		t.Fatal("no messages created via public API")
	}
	if r.Delivered == 0 {
		t.Fatal("nothing delivered via public API")
	}
}

func TestPublicRunRejectsBadConfig(t *testing.T) {
	cfg := smallConfig(1)
	cfg.Vehicles = 0
	if _, err := vdtn.Run(cfg); err == nil {
		t.Fatal("Run accepted an invalid config")
	}
}

func TestPublicDeterminism(t *testing.T) {
	a, err := vdtn.Run(smallConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := vdtn.Run(smallConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("public API runs not deterministic:\n%+v\n%+v", a, b)
	}
}

func TestPublicWorldAccess(t *testing.T) {
	w, err := vdtn.NewWorld(smallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if w.NodeCount() != 11 {
		t.Fatalf("NodeCount = %d", w.NodeCount())
	}
	if w.Graph() == nil {
		t.Fatal("Graph() nil")
	}
	w.Run()
}

func TestExperimentCatalogExported(t *testing.T) {
	if len(vdtn.Experiments()) < 10 {
		t.Fatalf("catalog too small: %d", len(vdtn.Experiments()))
	}
	for _, id := range []string{"fig4", "fig5", "fig6", "fig7", "fig8", "fig9"} {
		if _, ok := vdtn.ExperimentByID(id); !ok {
			t.Fatalf("missing %s", id)
		}
	}
}

func TestRunExperimentViaFacade(t *testing.T) {
	exp, _ := vdtn.ExperimentByID("fig5")
	exp.Xs = []float64{30} // single point, small scenario below
	exp.Base = func() vdtn.Config { return smallConfig(1) }
	res, err := vdtn.RunExperimentE(exp, vdtn.ExperimentOptions{Seeds: []uint64{1}})
	if err != nil {
		t.Fatal(err)
	}
	tbl := res.DefaultTable()
	if len(tbl.Series) != 3 {
		t.Fatalf("fig5 series = %d, want 3 policies", len(tbl.Series))
	}
	for _, s := range tbl.Series {
		v := s.Cells[0].Summary.Mean
		if v < 0 || v > 1 {
			t.Fatalf("series %s delivery prob %v out of range", s.Name, v)
		}
	}
	// Any other metric renders from the same finished sweep.
	over, err := res.Table(vdtn.MetricOverhead)
	if err != nil {
		t.Fatal(err)
	}
	if len(over.Series) != 3 {
		t.Fatalf("overhead view series = %d", len(over.Series))
	}
}

// minimalRouter checks that a custom router written purely against the
// public aliases satisfies the Router interface and runs.
type minimalRouter struct {
	self int
	buf  *vdtn.Buffer
}

func (r *minimalRouter) Name() string { return "minimal" }

func (r *minimalRouter) Attach(self int, buf *vdtn.Buffer) { r.self, r.buf = self, buf }

func (r *minimalRouter) ContactUp(now float64, p vdtn.Peer) {}

func (r *minimalRouter) ContactDown(now float64, p vdtn.Peer) {}

func (r *minimalRouter) Refresh(now float64, p vdtn.Peer) {}

func (r *minimalRouter) NextSend(now float64, p vdtn.Peer) *vdtn.Send {
	for _, m := range r.buf.Messages() {
		if m.To == p.ID() && !m.Expired(now) && !p.HasDelivered(m.ID) {
			return &vdtn.Send{Msg: m}
		}
	}
	return nil
}

func (r *minimalRouter) OnSent(now float64, p vdtn.Peer, s *vdtn.Send, delivered bool) {
	if delivered {
		r.buf.Remove(s.Msg.ID)
	}
}

func (r *minimalRouter) OnAbort(now float64, p vdtn.Peer, s *vdtn.Send) {}

func (r *minimalRouter) Receive(now float64, m *vdtn.Message, from vdtn.Peer) (bool, []*vdtn.Message) {
	return false, nil
}

func (r *minimalRouter) AddMessage(now float64, m *vdtn.Message) (bool, []*vdtn.Message) {
	evicted, ok := r.buf.Add(now, m, vdtn.NewFIFODrop())
	return ok, evicted
}

func TestCustomRouterViaPublicAPI(t *testing.T) {
	cfg := smallConfig(3)
	cfg.NewRouter = func(node int, rnd *vdtn.Rand) vdtn.Router { return &minimalRouter{} }
	r, err := vdtn.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Created == 0 {
		t.Fatal("custom-router run created nothing")
	}
	// minimalRouter is direct-delivery-like; it may deliver few messages,
	// but the run must complete and stay consistent.
	if r.Delivered > r.Created {
		t.Fatalf("delivered %d > created %d", r.Delivered, r.Created)
	}
}

func TestDropPolicyConstructors(t *testing.T) {
	if vdtn.NewFIFODrop().Name() != "FIFO" {
		t.Fatal("NewFIFODrop wrong policy")
	}
	if vdtn.NewLifetimeASCDrop().Name() != "LifetimeASC" {
		t.Fatal("NewLifetimeASCDrop wrong policy")
	}
}
