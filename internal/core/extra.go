package core

import "vdtn/internal/bundle"

// This file extends the paper's Table I with the other scheduling and
// dropping policies discussed in the DTN buffer-management literature the
// paper builds on (Lindgren & Phanse's evaluation of queueing policies,
// the ONE simulator's policy set). They are not part of the paper's
// evaluation; internal/sim pairs them into the extended PolicyKinds that
// the "ext-policies" experiment sweeps.

// SizeASCSchedule transmits the smallest messages first, maximizing the
// number of messages exchanged during a short contact window.
type SizeASCSchedule struct{}

// Name implements SchedulingPolicy.
func (SizeASCSchedule) Name() string { return "SizeASC" }

// Order implements SchedulingPolicy: msgs arrive in SizeASC order.
func (SizeASCSchedule) Order(float64, []*bundle.Message) {}

// KeepsCompareOrder implements SchedulingPolicy.
func (SizeASCSchedule) KeepsCompareOrder() bool { return true }

// Compare implements SchedulingPolicy: smaller first.
func (SizeASCSchedule) Compare(a, b *bundle.Message) int {
	return byKey(a.Size, b.Size, a, b)
}

// HopCountASCSchedule transmits the least-travelled messages first — a
// head start for young messages, the scheduling intuition MaxProp builds
// its below-threshold priority on.
type HopCountASCSchedule struct{}

// Name implements SchedulingPolicy.
func (HopCountASCSchedule) Name() string { return "HopASC" }

// Order implements SchedulingPolicy: msgs arrive in HopASC order.
func (HopCountASCSchedule) Order(float64, []*bundle.Message) {}

// KeepsCompareOrder implements SchedulingPolicy.
func (HopCountASCSchedule) KeepsCompareOrder() bool { return true }

// Compare implements SchedulingPolicy: fewer hops first.
func (HopCountASCSchedule) Compare(a, b *bundle.Message) int {
	return byKey(a.HopCount, b.HopCount, a, b)
}

// MOFODrop ("Most Forwarded First") evicts the replica this node has
// relayed the most times: it has had the most chances to spread, so
// sacrificing it costs the least residual delivery value (Lindgren &
// Phanse 2006).
type MOFODrop struct{}

// Name implements DropPolicy.
func (MOFODrop) Name() string { return "MOFO" }

// Victim implements DropPolicy.
func (MOFODrop) Victim(now float64, msgs []*bundle.Message) int {
	best := 0
	for i, m := range msgs[1:] {
		j := i + 1
		if m.Forwards > msgs[best].Forwards ||
			(m.Forwards == msgs[best].Forwards && m.ID < msgs[best].ID) {
			best = j
		}
	}
	return best
}

// SizeDESCDrop evicts the largest message first, freeing the most space
// per eviction.
type SizeDESCDrop struct{}

// Name implements DropPolicy.
func (SizeDESCDrop) Name() string { return "SizeDESC" }

// Victim implements DropPolicy.
func (SizeDESCDrop) Victim(now float64, msgs []*bundle.Message) int {
	best := 0
	for i, m := range msgs[1:] {
		j := i + 1
		if m.Size > msgs[best].Size ||
			(m.Size == msgs[best].Size && m.ID < msgs[best].ID) {
			best = j
		}
	}
	return best
}

// OldestAgeDrop evicts the message created longest ago (distinct from
// FIFO drop-head, which keys on buffer arrival at *this* node, and from
// LifetimeASC, which keys on remaining TTL — the three coincide only when
// all messages share one TTL and were received where they were created).
type OldestAgeDrop struct{}

// Name implements DropPolicy.
func (OldestAgeDrop) Name() string { return "OldestAge" }

// Victim implements DropPolicy.
func (OldestAgeDrop) Victim(now float64, msgs []*bundle.Message) int {
	best := 0
	for i, m := range msgs[1:] {
		j := i + 1
		if m.Created < msgs[best].Created ||
			(m.Created == msgs[best].Created && m.ID < msgs[best].ID) {
			best = j
		}
	}
	return best
}
