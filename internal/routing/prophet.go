package routing

import (
	"math"
	"sort"

	"vdtn/internal/bundle"
	"vdtn/internal/core"
)

// ProphetConfig carries the PRoPHET parameters (Lindgren, Doria, Davies —
// probabilistic routing for intermittently connected networks). Defaults
// follow the literature and the ONE simulator's vehicular settings.
type ProphetConfig struct {
	// PInit is the predictability boost on encounter (default 0.75).
	PInit float64
	// Beta scales the transitivity update (default 0.25).
	Beta float64
	// Gamma is the aging factor per time unit (default 0.98).
	Gamma float64
	// TimeUnit is the aging time unit in seconds (default 30, the ONE's
	// vehicular choice).
	TimeUnit float64
	// Drop selects the eviction policy. PRoPHET carries "its own schedule
	// and discard policies" (paper §II); the forwarding strategy is
	// GRTRMax, and eviction defaults to drop-head (FIFO) as in the ONE's
	// ProphetRouter, the platform the paper measured.
	Drop core.DropPolicy
}

// DefaultProphetConfig returns the parameterization described above.
func DefaultProphetConfig() ProphetConfig {
	return ProphetConfig{
		PInit:    0.75,
		Beta:     0.25,
		Gamma:    0.98,
		TimeUnit: 30,
		Drop:     core.FIFODrop{},
	}
}

// Prophet implements PRoPHET with the GRTRMax forwarding strategy: a
// message is offered to a peer only if the peer's delivery predictability
// for the destination exceeds our own, and offers are made in decreasing
// order of the peer's predictability.
type Prophet struct {
	base
	cfg ProphetConfig

	preds    map[int]float64 // destination node id -> delivery predictability
	lastAged float64
}

// NewProphet returns a PRoPHET router. Zero-valued config fields are
// replaced by defaults.
func NewProphet(cfg ProphetConfig) *Prophet {
	def := DefaultProphetConfig()
	if cfg.PInit == 0 {
		cfg.PInit = def.PInit
	}
	if cfg.Beta == 0 {
		cfg.Beta = def.Beta
	}
	if cfg.Gamma == 0 {
		cfg.Gamma = def.Gamma
	}
	if cfg.TimeUnit == 0 {
		cfg.TimeUnit = def.TimeUnit
	}
	if cfg.Drop == nil {
		cfg.Drop = def.Drop
	}
	if cfg.PInit <= 0 || cfg.PInit > 1 || cfg.Beta < 0 || cfg.Beta > 1 ||
		cfg.Gamma <= 0 || cfg.Gamma > 1 || cfg.TimeUnit <= 0 {
		panic("routing: invalid PRoPHET parameters")
	}
	return &Prophet{base: newBase(cfg.Drop), cfg: cfg, preds: make(map[int]float64)}
}

// Name implements Router.
func (pr *Prophet) Name() string { return "PRoPHET" }

// Predictability returns P(self, dest) after aging to time now.
func (pr *Prophet) Predictability(now float64, dest int) float64 {
	pr.age(now)
	return pr.preds[dest]
}

// age applies the exponential decay P *= gamma^k with k elapsed time units.
func (pr *Prophet) age(now float64) {
	elapsed := now - pr.lastAged
	if elapsed <= 0 {
		return
	}
	factor := math.Pow(pr.cfg.Gamma, elapsed/pr.cfg.TimeUnit)
	//vdtnlint:unordered-ok each key is scaled (or deleted) independently; no cross-key reads, so order cannot affect the result
	for d, p := range pr.preds {
		p *= factor
		if p < 1e-6 { // garbage-collect vanished entries
			delete(pr.preds, d)
		} else {
			pr.preds[d] = p
		}
	}
	pr.lastAged = now
}

// ContactUp implements Router: update predictabilities (direct encounter
// boost plus transitivity through the peer's table), then build the
// GRTRMax send queue.
func (pr *Prophet) ContactUp(now float64, p Peer) {
	pr.buf.Expire(now)
	pr.age(now)

	peerID := p.ID()
	pr.preds[peerID] += (1 - pr.preds[peerID]) * pr.cfg.PInit

	if remote, ok := p.Router().(*Prophet); ok {
		remote.age(now)
		pab := pr.preds[peerID]
		//vdtnlint:unordered-ok one commutative update per distinct destination; pab is captured before the loop, so no entry read is order-dependent
		for d, pbd := range remote.preds {
			if d == pr.self {
				continue
			}
			pr.preds[d] += (1 - pr.preds[d]) * pab * pbd * pr.cfg.Beta
		}
	}
	pr.Refresh(now, p)
}

// Refresh implements Router: rebuild the GRTRMax queue from current buffer
// and predictability state, with no encounter updates.
func (pr *Prophet) Refresh(now float64, p Peer) {
	peerID := p.ID()
	if remote, ok := p.Router().(*Prophet); ok {
		pr.queues.set(peerID, pr.grtrMaxQueue(now, p, remote))
		return
	}
	// Peer runs a different protocol: fall back to direct delivery
	// towards it (predictability exchange impossible).
	var deliverable []*bundle.Message
	for _, m := range pr.buf.Messages() {
		if m.To == peerID && !p.HasDelivered(m.ID) {
			deliverable = append(deliverable, m)
		}
	}
	sortByID(deliverable)
	pr.queues.set(peerID, deliverable)
}

// grtrMaxQueue builds the send queue: deliverable messages first, then
// messages for which the peer's predictability beats ours, in decreasing
// order of the peer's predictability (GRTRMax).
func (pr *Prophet) grtrMaxQueue(now float64, p Peer, remote *Prophet) []*bundle.Message {
	peerID := p.ID()
	var deliverable, offers []*bundle.Message
	for _, m := range pr.buf.Messages() {
		switch {
		case p.HasDelivered(m.ID):
			continue
		case m.To == peerID:
			deliverable = append(deliverable, m)
		case p.Has(m.ID):
			continue
		case remote.preds[m.To] > pr.preds[m.To]:
			offers = append(offers, m)
		}
	}
	sortByID(deliverable)
	sort.SliceStable(offers, func(i, j int) bool {
		pi, pj := remote.preds[offers[i].To], remote.preds[offers[j].To]
		if pi != pj {
			return pi > pj
		}
		return offers[i].ID < offers[j].ID
	})
	return append(deliverable, offers...)
}

// NextSend implements Router.
func (pr *Prophet) NextSend(now float64, p Peer) *Send {
	return pr.next(now, p, func(m *bundle.Message) bool { return m.To == p.ID() || !p.Has(m.ID) })
}

func sortByID(msgs []*bundle.Message) {
	sort.SliceStable(msgs, func(i, j int) bool { return msgs[i].ID < msgs[j].ID })
}
