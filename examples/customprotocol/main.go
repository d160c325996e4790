// Customprotocol: plug your own routing protocol into the simulator.
//
// The vdtn.Router interface is the extension point the routing protocols
// themselves are built on. This example implements "FreshFlood" from
// scratch against the public API: an epidemic variant that only relays
// messages still in the first half of their lifetime (older replicas ride
// along in the buffer but are no longer replicated — spending contact
// airtime on messages with time to benefit from it). It then races the
// custom protocol against stock Epidemic on the same scenario and seed.
//
//	go run ./examples/customprotocol
package main

import (
	"fmt"
	"log"
	"sort"

	"vdtn"
)

// FreshFlood is the custom router. It needs no locking and no time
// sources: the simulator calls it single-threaded with explicit `now`.
type FreshFlood struct {
	self  int
	buf   *vdtn.Buffer
	queue map[int][]*vdtn.Message
}

// NewFreshFlood returns an unattached FreshFlood router.
func NewFreshFlood() *FreshFlood {
	return &FreshFlood{queue: make(map[int][]*vdtn.Message)}
}

// Name implements vdtn.Router.
func (r *FreshFlood) Name() string { return "FreshFlood" }

// Attach implements vdtn.Router.
func (r *FreshFlood) Attach(self int, buf *vdtn.Buffer) {
	r.self = self
	r.buf = buf
}

// fresh reports whether m is still worth replicating: under half its TTL.
func fresh(m *vdtn.Message, now float64) bool {
	return m.Age(now) < m.TTL/2
}

// ContactUp implements vdtn.Router.
func (r *FreshFlood) ContactUp(now float64, p vdtn.Peer) { r.Refresh(now, p) }

// Refresh implements vdtn.Router: deliverable messages first, then fresh
// replicas the peer lacks, youngest first.
func (r *FreshFlood) Refresh(now float64, p vdtn.Peer) {
	r.buf.Expire(now)
	var deliverable, relay []*vdtn.Message
	for _, m := range r.buf.Messages() {
		switch {
		case p.HasDelivered(m.ID):
		case m.To == p.ID():
			deliverable = append(deliverable, m)
		case !p.Has(m.ID) && fresh(m, now):
			relay = append(relay, m)
		}
	}
	byYouth := func(ms []*vdtn.Message) {
		sort.SliceStable(ms, func(i, j int) bool {
			if ms[i].Created != ms[j].Created {
				return ms[i].Created > ms[j].Created // youngest first
			}
			return ms[i].ID < ms[j].ID
		})
	}
	byYouth(deliverable)
	byYouth(relay)
	r.queue[p.ID()] = append(deliverable, relay...)
}

// ContactDown implements vdtn.Router.
func (r *FreshFlood) ContactDown(now float64, p vdtn.Peer) { delete(r.queue, p.ID()) }

// NextSend implements vdtn.Router.
func (r *FreshFlood) NextSend(now float64, p vdtn.Peer) *vdtn.Send {
	q := r.queue[p.ID()]
	for len(q) > 0 {
		m := q[0]
		q = q[1:]
		if !r.buf.Has(m.ID) || m.Expired(now) || p.HasDelivered(m.ID) {
			continue
		}
		if m.To != p.ID() && (p.Has(m.ID) || !fresh(m, now)) {
			continue
		}
		r.queue[p.ID()] = q
		return &vdtn.Send{Msg: m}
	}
	r.queue[p.ID()] = q
	return nil
}

// OnSent implements vdtn.Router.
func (r *FreshFlood) OnSent(now float64, p vdtn.Peer, s *vdtn.Send, delivered bool) {
	if delivered {
		r.buf.Remove(s.Msg.ID)
	}
}

// OnAbort implements vdtn.Router and does nothing: the replica stays
// buffered, and ContactDown, which always follows an abort, drops p's
// queue.
func (r *FreshFlood) OnAbort(now float64, p vdtn.Peer, s *vdtn.Send) {}

// Receive implements vdtn.Router: store with the paper's Lifetime ASC
// eviction, so the oldest-to-expire replicas go first under pressure.
func (r *FreshFlood) Receive(now float64, m *vdtn.Message, from vdtn.Peer) (bool, []*vdtn.Message) {
	if m.Expired(now) {
		return false, nil
	}
	r.buf.Expire(now)
	evicted, ok := r.buf.Add(now, m, vdtn.NewLifetimeASCDrop())
	return ok, evicted
}

// AddMessage implements vdtn.Router.
func (r *FreshFlood) AddMessage(now float64, m *vdtn.Message) (bool, []*vdtn.Message) {
	r.buf.Expire(now)
	evicted, ok := r.buf.Add(now, m, vdtn.NewLifetimeASCDrop())
	return ok, evicted
}

func main() {
	const ttl = 120
	run := func(name string, mutate func(*vdtn.Config)) vdtn.Result {
		cfg := vdtn.PaperConfig(ttl, vdtn.ProtoEpidemic, vdtn.PolicyLifetime, 1)
		if mutate != nil {
			mutate(&cfg)
		}
		r, err := vdtn.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s delivery %.3f   avg delay %6.1f min   drops %d\n",
			name, r.DeliveryProbability, r.AvgDelay/60, r.Dropped)
		return r
	}

	fmt.Printf("Paper scenario, TTL %d min, same seed\n\n", ttl)
	run("Epidemic/Lifetime", nil)
	run("FreshFlood (custom)", func(cfg *vdtn.Config) {
		cfg.NewRouter = func(node int, rnd *vdtn.Rand) vdtn.Router {
			return NewFreshFlood()
		}
	})
	fmt.Println("\nFreshFlood trades a little delivery ratio for less replication of")
	fmt.Println("stale messages — implemented entirely against the public vdtn API.")
}
