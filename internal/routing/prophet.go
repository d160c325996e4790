package routing

import (
	"cmp"
	"math"
	"slices"

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

	preds    []float64 // destination node id -> delivery predictability; 0 = none
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
	return &Prophet{base: newBase(cfg.Drop), cfg: cfg}
}

// Name implements Router.
func (pr *Prophet) Name() string { return "PRoPHET" }

// Predictability returns P(self, dest) after aging to time now.
func (pr *Prophet) Predictability(now float64, dest int) float64 {
	pr.age(now)
	return at(pr.preds, dest, 0)
}

// age applies the exponential decay P *= gamma^k with k elapsed time units,
// zeroing entries that fall below 1e-6.
func (pr *Prophet) age(now float64) {
	elapsed := now - pr.lastAged
	if elapsed <= 0 {
		return
	}
	factor := math.Pow(pr.cfg.Gamma, elapsed/pr.cfg.TimeUnit)
	for d, p := range pr.preds {
		if p *= factor; p < 1e-6 {
			p = 0
		}
		pr.preds[d] = p
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
	pr.preds = widen(pr.preds, peerID+1, 0)
	pr.preds[peerID] += (1 - pr.preds[peerID]) * pr.cfg.PInit

	if remote, ok := p.Router().(*Prophet); ok {
		remote.age(now)
		pab := pr.preds[peerID]
		pr.preds = widen(pr.preds, len(remote.preds), 0)
		for d, pbd := range remote.preds {
			if pbd == 0 || d == pr.self {
				continue
			}
			pr.preds[d] += (1 - pr.preds[d]) * pab * pbd * pr.cfg.Beta
		}
	}
	pr.Refresh(now, p)
}

// Refresh implements Router: rebuild the GRTRMax queue from current buffer
// and predictability state, with no encounter updates. Messages destined
// to p go first, by id, except those p has already received; then those
// for which the peer's predictability beats ours, in decreasing order of
// the peer's predictability (GRTRMax), ties by id. That order reads the
// peer's table, so it is sorted per peer. A peer running another protocol
// exchanges no predictabilities, so it gets only the messages destined to
// it: rest stays empty, and its sort compares nothing.
func (pr *Prophet) Refresh(now float64, p Peer) {
	remote, _ := p.Router().(*Prophet)
	deliv, rest := pr.groups(p.id)
	for _, e := range pr.buf.Sorted() {
		switch {
		case p.HasDelivered(e.ID()):
		case e.To() == p.id:
			deliv = append(deliv, e.Msg())
		case remote != nil && !p.Has(e.ID()) && at(remote.preds, e.To(), 0) > at(pr.preds, e.To(), 0):
			rest = append(rest, e.Msg())
		}
	}
	slices.SortFunc(deliv, byID)
	slices.SortFunc(rest, func(a, b *bundle.Message) int {
		return cmp.Or(cmp.Compare(at(remote.preds, b.To, 0), at(remote.preds, a.To, 0)), byID(a, b))
	})
	pr.queue(p.id, deliv, rest)
}

// NextSend implements Router.
func (pr *Prophet) NextSend(now float64, p Peer) *Send {
	return pr.next(now, p, func(m *bundle.Message) bool { return m.To == p.ID() || !p.Has(m.ID) })
}
