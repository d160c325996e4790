// Package core implements the paper's primary contribution: buffer
// scheduling and dropping policies for vehicular delay-tolerant networks,
// and the combined policy pairs evaluated in the paper (Table I).
//
// The scheduling policy decides the *order in which buffered messages are
// transmitted* when a contact opportunity arises; the dropping policy
// decides *which message is evicted* when the buffer overflows. The paper's
// finding is that basing both on the message's remaining lifetime —
// scheduling longest-remaining-TTL first (Lifetime DESC) and dropping
// shortest-remaining-TTL first (Lifetime ASC) — significantly reduces
// average delivery delay and also improves delivery probability for both
// Epidemic and Spray-and-Wait routing.
package core

import (
	"cmp"

	"vdtn/internal/bundle"
	"vdtn/internal/xrand"
)

// SchedulingPolicy orders candidate messages for transmission at a contact
// opportunity. Order receives msgs in Compare order and puts them in place
// into transmission order (first element transmitted first).
// Implementations must be deterministic given their inputs (the Random
// policy draws from an injected stream).
//
// Compare is the side-effect-free order behind Order: negative when a goes
// before b. It must be a total order on distinct message ids (ties broken
// by id), so the order of a set of messages does not depend on the order
// they arrive in, and it may read only fields fixed while a replica is
// stored, so the order does not depend on the time either. Routers keep
// their buffer sorted by Compare (buffer.Store.SortBy) and hand Order
// groups filtered from it, so a deterministic Order has nothing left to
// do; a policy whose Order draws from a stream (Random) shuffles that
// order.
//
// KeepsCompareOrder reports whether Order leaves every input as it is.
// For such a schedule a buffer kept in Compare order already is the
// transmission order, so a router may read a send queue off it lazily,
// without calling Order. Every schedule here but Random keeps it.
type SchedulingPolicy interface {
	Name() string
	Order(now float64, msgs []*bundle.Message)
	Compare(a, b *bundle.Message) int
	KeepsCompareOrder() bool
}

// byKey orders by ka against kb, then by message id.
func byKey[K cmp.Ordered](ka, kb K, a, b *bundle.Message) int {
	if c := cmp.Compare(ka, kb); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// DropPolicy selects buffer-overflow victims. Victim returns the index into
// msgs of the message to evict next; msgs is never empty.
type DropPolicy interface {
	Name() string
	Victim(now float64, msgs []*bundle.Message) int
}

// Policy is a combined scheduling-dropping pair, the unit the paper's
// evaluation varies (Table I).
type Policy struct {
	Schedule SchedulingPolicy
	Drop     DropPolicy
}

// Name renders the paper's "Scheduling – Dropping" naming, e.g.
// "FIFO-FIFO" or "LifetimeDESC-LifetimeASC".
func (p Policy) Name() string { return p.Schedule.Name() + "-" + p.Drop.Name() }

// --- Scheduling policies -------------------------------------------------

// FIFOSchedule transmits messages in buffer-arrival order (first come,
// first served). As the paper notes, this gives no guarantee about whether
// the TTL of the transmitted messages is about to expire.
type FIFOSchedule struct{}

// Name implements SchedulingPolicy.
func (FIFOSchedule) Name() string { return "FIFO" }

// Order implements SchedulingPolicy: msgs arrive in FIFO order.
func (FIFOSchedule) Order(float64, []*bundle.Message) {}

// KeepsCompareOrder implements SchedulingPolicy.
func (FIFOSchedule) KeepsCompareOrder() bool { return true }

// Compare implements SchedulingPolicy: earlier buffer arrival first.
func (FIFOSchedule) Compare(a, b *bundle.Message) int {
	return byKey(a.ReceivedAt, b.ReceivedAt, a, b)
}

// RandomSchedule transmits messages in uniformly random order, the paper's
// second policy ("Random scheduling policy sends messages in a random
// order"). The shuffle draws from the injected stream so runs remain
// reproducible.
type RandomSchedule struct {
	Rng *xrand.Rand
}

// Name implements SchedulingPolicy.
func (RandomSchedule) Name() string { return "Random" }

// Order implements SchedulingPolicy: it shuffles msgs from the Compare
// order they arrive in, so the result depends only on the stream state and
// the set of messages.
func (r RandomSchedule) Order(now float64, msgs []*bundle.Message) {
	if r.Rng == nil {
		panic("core: RandomSchedule with nil rng")
	}
	r.Rng.Shuffle(len(msgs), func(i, j int) { msgs[i], msgs[j] = msgs[j], msgs[i] })
}

// Compare implements SchedulingPolicy with the FIFO order Order shuffles
// from; it draws nothing.
func (RandomSchedule) Compare(a, b *bundle.Message) int { return FIFOSchedule{}.Compare(a, b) }

// KeepsCompareOrder implements SchedulingPolicy: Order shuffles.
func (RandomSchedule) KeepsCompareOrder() bool { return false }

// LifetimeDESCSchedule transmits messages with the longest remaining TTL
// first. Exchanged messages therefore have long remaining lifetimes, which
// raises their chance of being relayed further before expiring — the
// scheduling half of the paper's proposal.
type LifetimeDESCSchedule struct{}

// Name implements SchedulingPolicy.
func (LifetimeDESCSchedule) Name() string { return "LifetimeDESC" }

// Order implements SchedulingPolicy: msgs arrive in LifetimeDESC order.
func (LifetimeDESCSchedule) Order(float64, []*bundle.Message) {}

// KeepsCompareOrder implements SchedulingPolicy.
func (LifetimeDESCSchedule) KeepsCompareOrder() bool { return true }

// Compare implements SchedulingPolicy: more remaining TTL first. At any
// one instant remaining lifetime is the deadline minus now, so Compare
// orders by deadline, latest first. Two distinct deadlines stay apart even
// where their remaining lifetimes round to one value.
func (LifetimeDESCSchedule) Compare(a, b *bundle.Message) int {
	return byKey(b.ExpiresAt(), a.ExpiresAt(), a, b)
}

// --- Dropping policies ---------------------------------------------------

// FIFODrop evicts the message at the head of the queue — the one that has
// been buffered longest ("drop head"). As the paper notes, nothing
// guarantees its remaining TTL is smaller than anyone else's.
type FIFODrop struct{}

// Name implements DropPolicy.
func (FIFODrop) Name() string { return "FIFO" }

// Victim implements DropPolicy.
func (FIFODrop) Victim(now float64, msgs []*bundle.Message) int {
	best := 0
	for i, m := range msgs[1:] {
		j := i + 1
		if m.ReceivedAt < msgs[best].ReceivedAt ||
			(m.ReceivedAt == msgs[best].ReceivedAt && m.ID < msgs[best].ID) {
			best = j
		}
	}
	return best
}

// LifetimeASCDrop evicts the message whose remaining TTL expires soonest —
// it has the least time left to reach its destination, so sacrificing it
// costs the least expected delivery value. The dropping half of the paper's
// proposal.
type LifetimeASCDrop struct{}

// Name implements DropPolicy.
func (LifetimeASCDrop) Name() string { return "LifetimeASC" }

// Victim implements DropPolicy: the earliest deadline, which is the least
// remaining TTL at any now.
func (LifetimeASCDrop) Victim(now float64, msgs []*bundle.Message) int {
	best := 0
	for i, m := range msgs[1:] {
		j := i + 1
		di, db := m.ExpiresAt(), msgs[best].ExpiresAt()
		if di < db || (di == db && m.ID < msgs[best].ID) {
			best = j
		}
	}
	return best
}

// --- The paper's Table I combinations ------------------------------------

// FIFOFIFO returns the paper's baseline policy: FIFO scheduling with
// drop-head eviction.
func FIFOFIFO() Policy {
	return Policy{Schedule: FIFOSchedule{}, Drop: FIFODrop{}}
}

// RandomFIFO returns the paper's second policy: random transmission order
// with drop-head eviction.
func RandomFIFO(rng *xrand.Rand) Policy {
	return Policy{Schedule: RandomSchedule{Rng: rng}, Drop: FIFODrop{}}
}

// Lifetime returns the paper's proposed policy: Lifetime DESC scheduling
// with Lifetime ASC dropping.
func Lifetime() Policy {
	return Policy{Schedule: LifetimeDESCSchedule{}, Drop: LifetimeASCDrop{}}
}

// TableI returns the three combined policies exactly as the paper's Table I
// lists them, in order. rng feeds the Random scheduler.
func TableI(rng *xrand.Rand) []Policy {
	return []Policy{FIFOFIFO(), RandomFIFO(rng), Lifetime()}
}
