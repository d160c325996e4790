package sim

import (
	"testing"

	"vdtn/internal/bundle"
	"vdtn/internal/routing"
	"vdtn/internal/xrand"
)

// abortRecorder wraps a router and checks the call order around aborts:
// once OnAbort names a peer, the next call naming that peer must be
// ContactDown.
type abortRecorder struct {
	routing.Router
	t       *testing.T
	node    int
	pending []bool // by peer id: an abort awaits its ContactDown
	aborts  int
}

// named checks a call naming p that is not ContactDown.
func (r *abortRecorder) named(call string, p routing.Peer) {
	if id := p.ID(); id < len(r.pending) && r.pending[id] {
		r.t.Errorf("node %d: %s(%d) between OnAbort(%d) and ContactDown(%d)", r.node, call, id, id, id)
		r.pending[id] = false
	}
}

func (r *abortRecorder) ContactUp(now float64, p routing.Peer) {
	r.named("ContactUp", p)
	r.Router.ContactUp(now, p)
}

func (r *abortRecorder) ContactDown(now float64, p routing.Peer) {
	if id := p.ID(); id < len(r.pending) {
		r.pending[id] = false
	}
	r.Router.ContactDown(now, p)
}

func (r *abortRecorder) Refresh(now float64, p routing.Peer) {
	r.named("Refresh", p)
	r.Router.Refresh(now, p)
}

func (r *abortRecorder) NextSend(now float64, p routing.Peer) *routing.Send {
	r.named("NextSend", p)
	return r.Router.NextSend(now, p)
}

func (r *abortRecorder) OnSent(now float64, p routing.Peer, s *routing.Send, delivered bool) {
	r.named("OnSent", p)
	r.Router.OnSent(now, p, s, delivered)
}

func (r *abortRecorder) OnAbort(now float64, p routing.Peer, s *routing.Send) {
	r.named("OnAbort", p)
	for len(r.pending) <= p.ID() {
		r.pending = append(r.pending, false)
	}
	r.pending[p.ID()] = true
	r.aborts++
	r.Router.OnAbort(now, p, s)
}

func (r *abortRecorder) Receive(now float64, m *bundle.Message, from routing.Peer) (bool, []*bundle.Message) {
	r.named("Receive", from)
	return r.Router.Receive(now, m, from)
}

// TestAbortIsFollowedByContactDown checks the premise that lets routers
// treat OnAbort as a no-op: a transfer aborts only when its contact
// breaks, and the simulator then calls ContactDown for that peer before
// any other call that names it. The contact plan's windows, one to four
// seconds, are often shorter than a transfer of the generated messages,
// so the run aborts many transfers. The order is the simulator's, not a
// protocol's, so Epidemic and Spray-and-Wait suffice.
func TestAbortIsFollowedByContactDown(t *testing.T) {
	// Round-robin pairings of 12 nodes, five times over, with window
	// lengths cycling through 1-4 s.
	windows := roundRobin(12, 55, func(k, i int) float64 { return float64(1 + (k+i)%4) })
	for _, proto := range []ProtocolKind{ProtoEpidemic, ProtoSprayAndWait} {
		t.Run(proto.String(), func(t *testing.T) {
			c := planConfig(t, 12, windows, nil)
			c.MsgIntervalLo, c.MsgIntervalHi = 5, 10
			var recs []*abortRecorder
			c.NewRouter = func(node int, rnd *xrand.Rand) routing.Router {
				inner := Config{Protocol: proto, Policy: PolicyLifetime, SprayCopies: c.SprayCopies}.buildRouter(node, rnd)
				rec := &abortRecorder{Router: inner, t: t, node: node}
				recs = append(recs, rec)
				return rec
			}
			r := mustRun(t, c)
			aborts := 0
			for _, rec := range recs {
				aborts += rec.aborts
			}
			if aborts == 0 || r.TransfersAborted == 0 {
				t.Fatalf("the run aborted no transfer (%d OnAbort calls, %d aborted); the check is vacuous", aborts, r.TransfersAborted)
			}
			if uint64(aborts) != r.TransfersAborted {
				t.Fatalf("%d OnAbort calls for %d aborted transfers", aborts, r.TransfersAborted)
			}
			for _, rec := range recs {
				for peer, open := range rec.pending {
					if open {
						t.Errorf("node %d: OnAbort(%d) never followed by ContactDown(%d)", rec.node, peer, peer)
					}
				}
			}
			t.Logf("%d aborts, %d transfers completed, %d delivered", aborts, r.TransfersCompleted, r.Delivered)
		})
	}
}
