// Package buffer implements the message store of a VDTN node: a
// capacity-bounded buffer whose overflow behaviour is delegated to a
// dropping policy (internal/core) and whose contents are handed to
// scheduling policies at contact opportunities.
//
// The store keeps replicas in insertion order and holds no map: message
// ids are minted densely from 1, so membership is a bitset indexed by id
// (bundle.IDSet), and the rarer lookups by id scan the buffer. A store can
// also keep its replicas in one caller-chosen order (SortBy): a policy
// router sorts its buffer by its schedule once and reads the sorted
// replicas at every send-queue rebuild (Sorted). An Add inserts at the
// binary-search position and a removal deletes by pointer, so the order
// holds as replicas come and go. A lower bound on the stored deadlines
// makes Expire free while nothing can have expired. All iteration orders
// are deterministic so that simulation runs are reproducible bit-for-bit.
package buffer

import (
	"fmt"
	"math"
	"slices"

	"vdtn/internal/bundle"
	"vdtn/internal/core"
	"vdtn/internal/units"
)

// Store is one node's message buffer. The zero value is not usable;
// use NewStore.
type Store struct {
	capacity units.Bytes
	used     units.Bytes
	order    []*bundle.Message              // insertion order, nil-free
	ids      bundle.IDSet                   // the ids in order
	cmp      func(a, b *bundle.Message) int // SortBy's order, nil if none
	sorted   []*bundle.Message              // order's replicas sorted by cmp
	deadline float64                        // lower bound on every stored ExpiresAt
	onExpire func(now float64, dead []*bundle.Message)

	evicted, dead []*bundle.Message // what Add and Expire return, reused
}

// SetExpireHook installs fn to be called with every batch of replicas
// removed by Expire. The simulator uses it to account TTL deaths exactly,
// no matter which code path (router decision points or the periodic sweep)
// triggered the expiry.
func (s *Store) SetExpireHook(fn func(now float64, dead []*bundle.Message)) { s.onExpire = fn }

// NewStore returns an empty buffer with the given capacity in bytes.
// It panics on non-positive capacity.
func NewStore(capacity units.Bytes) *Store {
	if capacity <= 0 {
		panic(fmt.Sprintf("buffer: non-positive capacity %d", capacity))
	}
	return &Store{capacity: capacity, deadline: math.Inf(1)}
}

// Capacity returns the configured capacity in bytes.
func (s *Store) Capacity() units.Bytes { return s.capacity }

// Used returns the bytes currently occupied.
func (s *Store) Used() units.Bytes { return s.used }

// Free returns the bytes currently available.
func (s *Store) Free() units.Bytes { return s.capacity - s.used }

// Len returns the number of stored replicas.
func (s *Store) Len() int { return len(s.order) }

// Occupancy returns the fill fraction in [0, 1].
func (s *Store) Occupancy() float64 {
	return float64(s.used) / float64(s.capacity)
}

// Has reports whether a replica of id is stored.
func (s *Store) Has(id bundle.ID) bool { return s.ids.Has(id) }

// Get returns the stored replica of id, if any.
func (s *Store) Get(id bundle.ID) (*bundle.Message, bool) {
	i := s.index(id)
	if i < 0 {
		return nil, false
	}
	return s.order[i], true
}

// SortBy makes the store keep its replicas sorted by cmp too, for Sorted.
// cmp must be a total order (no two distinct replicas compare equal) that
// reads only fields fixed while a replica is stored. A router calls it
// once, when it is attached.
func (s *Store) SortBy(cmp func(a, b *bundle.Message) int) {
	s.cmp = cmp
	s.sorted = slices.SortedStableFunc(slices.Values(s.order), cmp)
}

// Sorted lends the stored replicas in SortBy's order, or in insertion
// order if SortBy was never called. The slice is read-only and valid only
// until the store next changes.
func (s *Store) Sorted() []*bundle.Message {
	if s.cmp == nil {
		return s.order
	}
	return s.sorted
}

// index returns id's position in insertion order, or -1 if absent.
func (s *Store) index(id bundle.ID) int {
	if !s.ids.Has(id) {
		return -1
	}
	return slices.IndexFunc(s.order, func(m *bundle.Message) bool { return m.ID == id })
}

// Messages returns the stored replicas in insertion order. The slice is
// freshly allocated; the replicas are shared.
func (s *Store) Messages() []*bundle.Message {
	out := make([]*bundle.Message, len(s.order))
	copy(out, s.order)
	return out
}

// Add stores m, evicting victims chosen by drop until m fits. It returns
// the evicted replicas (in eviction order) and whether m was stored. The
// evicted slice is the store's own and is reused by the next Add: read it
// before adding again.
//
// Add refuses — returning (nil, false) without evicting anything — if a
// replica of the same message is already stored, or if m alone exceeds the
// whole buffer capacity (the ONE simulator's behaviour: an oversized bundle
// never justifies flushing the node).
func (s *Store) Add(now float64, m *bundle.Message, drop core.DropPolicy) (evicted []*bundle.Message, ok bool) {
	if m == nil {
		panic("buffer: Add nil message")
	}
	if s.Has(m.ID) {
		return nil, false
	}
	if m.Size > s.capacity {
		return nil, false
	}
	if s.used+m.Size > s.capacity && drop == nil {
		return nil, false
	}
	clear(s.evicted)
	evicted = s.evicted[:0]
	for s.used+m.Size > s.capacity {
		v := drop.Victim(now, s.order)
		if v < 0 || v >= len(s.order) {
			panic(fmt.Sprintf("buffer: drop policy %s returned victim %d of %d", drop.Name(), v, len(s.order)))
		}
		evicted = append(evicted, s.removeAt(v))
	}
	s.evicted = evicted
	s.ids.Add(m.ID)
	s.order = append(s.order, m)
	if s.cmp != nil {
		i, _ := slices.BinarySearchFunc(s.sorted, m, s.cmp)
		s.sorted = slices.Insert(s.sorted, i, m)
	}
	s.used += m.Size
	s.deadline = min(s.deadline, m.ExpiresAt())
	return evicted, true
}

// Remove deletes and returns the replica of id, or nil if absent.
func (s *Store) Remove(id bundle.ID) *bundle.Message {
	i := s.index(id)
	if i < 0 {
		return nil
	}
	return s.removeAt(i)
}

// removeAt removes the replica at index i in insertion order, and the
// same pointer from the sorted replicas.
func (s *Store) removeAt(i int) *bundle.Message {
	m := s.order[i]
	s.order = slices.Delete(s.order, i, i+1)
	if s.cmp != nil {
		j := slices.Index(s.sorted, m)
		s.sorted = slices.Delete(s.sorted, j, j+1)
	}
	s.ids.Remove(m.ID)
	s.used -= m.Size
	return m
}

// Expire removes and returns every replica whose TTL has run out at now,
// in insertion order. The simulator calls this from its periodic sweep and
// before policy decisions, so policies never see dead messages. While now
// is below the earliest stored deadline nothing can have expired, and
// Expire returns at once; otherwise it scans and tightens the bound. The
// returned slice, which is also what the expire hook sees, is the store's
// own and is reused by the next Expire: read it before expiring again.
func (s *Store) Expire(now float64) []*bundle.Message {
	if now < s.deadline {
		return nil
	}
	clear(s.dead)
	dead := s.dead[:0]
	s.deadline = math.Inf(1)
	for i := 0; i < len(s.order); {
		if m := s.order[i]; m.Expired(now) {
			dead = append(dead, s.removeAt(i))
		} else {
			s.deadline = min(s.deadline, m.ExpiresAt())
			i++
		}
	}
	s.dead = dead
	if len(dead) > 0 && s.onExpire != nil {
		s.onExpire(now, dead)
	}
	return dead
}

// check panics if internal invariants are violated; used by tests.
func (s *Store) check() {
	var used units.Bytes
	deadline := math.Inf(1)
	for i, m := range s.order {
		used += m.Size
		deadline = min(deadline, m.ExpiresAt())
		if j := s.index(m.ID); j != i {
			panic(fmt.Sprintf("buffer: index desync for %v: found at %d, stored at %d", m.ID, j, i))
		}
	}
	if s.ids.Len() != len(s.order) {
		panic("buffer: id set and slice length differ")
	}
	if s.cmp != nil && !slices.Equal(s.sorted, slices.SortedStableFunc(slices.Values(s.order), s.cmp)) {
		panic("buffer: sorted replicas are not a stable sort of the insertion order")
	}
	if used != s.used {
		panic(fmt.Sprintf("buffer: used accounting drifted: %d != %d", used, s.used))
	}
	if s.deadline > deadline {
		panic(fmt.Sprintf("buffer: deadline bound %v above earliest deadline %v", s.deadline, deadline))
	}
	if s.used > s.capacity {
		panic("buffer: capacity exceeded")
	}
}
