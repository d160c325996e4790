package routing

import (
	"fmt"

	"vdtn/internal/bundle"
	"vdtn/internal/core"
)

// SprayAndWait is the controlled-replication protocol of Spyropoulos et al.
// (WDTN 2005). Each message starts with a budget of N logical copies
// (the paper's evaluation uses N = 12). A node holding more than one copy
// "sprays" at contacts; a node with a single copy "waits" and forwards only
// to the final destination.
//
// In the binary variant (the one the paper uses), a spraying node hands
// over half its budget — the receiver gets floor(n/2) copies and the sender
// keeps ceil(n/2). In the vanilla (source-spray) variant, the source hands
// single copies to the first N-1 encountered nodes.
//
// Transmission order and overflow eviction follow the injected
// scheduling-dropping policy, as in the paper.
type SprayAndWait struct {
	policyRouter
	copies int
	binary bool
}

// NewSprayAndWait returns a Spray-and-Wait router with the given copy
// budget. binary selects the binary variant (the paper's choice).
func NewSprayAndWait(pol core.Policy, copies int, binary bool) *SprayAndWait {
	if copies < 1 {
		panic(fmt.Sprintf("routing: SprayAndWait with %d copies", copies))
	}
	// Only replicas still holding more than one copy spray.
	relay := func(m *bundle.Message, _ int) bool { return m.Copies > 1 }
	return &SprayAndWait{policyRouter: newPolicyRouter("SprayAndWait", pol, relay), copies: copies, binary: binary}
}

// Name implements Router.
func (s *SprayAndWait) Name() string {
	if s.binary {
		return "SprayAndWait"
	}
	return "SprayAndWaitVanilla"
}

// NextSend implements Router: a spray hands over part of the budget.
func (s *SprayAndWait) NextSend(now float64, p Peer) *Send {
	send := s.policyRouter.NextSend(now, p)
	if send == nil || send.Msg.To == p.ID() {
		return send // delivery: budget irrelevant
	}
	send.TransferCopies = send.Msg.Copies / 2 // binary: floor(n/2)
	if !s.binary {
		send.TransferCopies = 1 // source spray: single copies
	}
	return send
}

// OnSent implements Router: on delivery the local replica is discarded
// (paper rule); on a spray the local budget drops by the copies handed
// over, and a replica whose budget is exhausted is removed.
func (s *SprayAndWait) OnSent(now float64, p Peer, send *Send, delivered bool) {
	if delivered {
		s.buf.Remove(send.Msg.ID)
		return
	}
	m, ok := s.buf.Get(send.Msg.ID)
	if !ok {
		return // evicted mid-transfer; nothing to update
	}
	m.Copies -= send.TransferCopies
	if m.Copies < 1 {
		s.buf.Remove(m.ID)
	}
}

// AddMessage implements Router: a locally created message starts with the
// full copy budget.
func (s *SprayAndWait) AddMessage(now float64, m *bundle.Message) (bool, []*bundle.Message) {
	m.Copies = s.copies
	return s.store(now, m)
}
