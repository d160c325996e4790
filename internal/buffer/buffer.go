// Package buffer implements the message store of a VDTN node: a
// capacity-bounded buffer whose overflow behaviour is delegated to a
// dropping policy (internal/core) and whose contents are handed to
// scheduling policies at contact opportunities.
//
// The store keeps replicas in insertion order and holds no map: message
// ids are minted densely from 1, so membership is a bitset indexed by id
// (bundle.IDSet), and the rarer lookups by id scan the buffer. Beside that
// order the store keeps one slice of entries (Entry), each a replica's key,
// its id and destination, next to the replica pointer, in one
// caller-chosen order (SortBy), or in insertion order if none was chosen.
// A router sorts its buffer once and walks the entries at every send-queue
// rebuild (Sorted): the key settles most replicas against the peer's id
// sets without reading the replica. An Add inserts at the binary-search
// position and a removal deletes by pointer, so the order holds as
// replicas come and go. MaxProp's order is the exception that moves while
// replicas stay: it also reads the router's cost epoch and hop threshold,
// so the router re-sorts the store in place (Resort) after each change to
// them, before the store compares again. A lower bound on the stored
// deadlines makes Expire free while nothing can have expired.
// CheckInvariants audits all of this.
// All iteration orders are deterministic so that simulation runs are
// reproducible bit-for-bit.
package buffer

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"vdtn/internal/bundle"
	"vdtn/internal/core"
	"vdtn/internal/units"
)

// Entry is one stored replica as Sorted lends it: the replica's key, its
// id and destination, beside the replica itself. The key is copied when
// the replica is stored, and neither field changes while it is. It is
// kept in 32 bits a field, so that an entry is two words: a store refuses
// ids at or past 2^32, which no id set could hold anyway (it would take
// 512 MiB), and destinations outside int32.
type Entry struct {
	msg *bundle.Message
	id  uint32
	to  int32
}

// newEntry returns m's entry, panicking if its key does not fit.
func newEntry(m *bundle.Message) Entry {
	if m.ID < 0 || m.ID > math.MaxUint32 || m.To != int(int32(m.To)) {
		panic(fmt.Sprintf("buffer: message %d to node %d does not fit a 32-bit entry key", m.ID, m.To))
	}
	return Entry{msg: m, id: uint32(m.ID), to: int32(m.To)}
}

// ID returns the replica's message id.
func (e Entry) ID() bundle.ID { return bundle.ID(e.id) }

// To returns the replica's destination node id.
func (e Entry) To() int { return int(e.to) }

// Msg returns the replica.
func (e Entry) Msg() *bundle.Message { return e.msg }

// Store is one node's message buffer. The zero value is not usable;
// use NewStore.
type Store struct {
	capacity units.Bytes
	used     units.Bytes
	order    []*bundle.Message              // insertion order, nil-free
	ids      bundle.IDSet                   // the ids in order
	cmp      func(a, b *bundle.Message) int // SortBy's order, nil if none
	sorted   []Entry                        // order's replicas, sorted by cmp if set
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

// NumIDWords returns how many bitset words the stored ids span: every
// stored id is below 64·NumIDWords().
func (s *Store) NumIDWords() int { return s.ids.NumWords() }

// AppendIDWords appends the first n words of the stored ids' bitset to
// dst, a zero word for each past its end, and returns the extended slice:
// a copy of the stored ids below 64·n, for bundle.IDWords to read.
func (s *Store) AppendIDWords(dst []uint64, n int) []uint64 { return s.ids.AppendWords(dst, n) }

// Get returns the stored replica of id, if any.
func (s *Store) Get(id bundle.ID) (*bundle.Message, bool) {
	i := s.index(id)
	if i < 0 {
		return nil, false
	}
	return s.order[i], true
}

// SortBy makes the store keep its replicas sorted by cmp too, for Sorted.
// cmp must be a total order (no two distinct replicas compare equal)
// whose answers change only where the caller calls Resort. The schedule
// orders read only fields fixed while a replica is stored, so they never
// need it. MaxProp's order also reads router state (its cost epoch and its
// hop threshold), and the router calls Resort after each change to that
// state, before the store compares again. A router calls SortBy once,
// when it is attached.
func (s *Store) SortBy(cmp func(a, b *bundle.Message) int) {
	s.cmp = cmp
	s.sorted = s.sorted[:0]
	for _, m := range s.order {
		s.sorted = append(s.sorted, newEntry(m))
	}
	slices.SortStableFunc(s.sorted, s.compare)
}

// compare orders two entries by SortBy's order on their replicas.
func (s *Store) compare(a, b Entry) int { return s.cmp(a.msg, b.msg) }

// Resort sorts the replicas by SortBy's order again, in place and without
// allocating, for an order whose answers changed (see SortBy). It does
// nothing if SortBy was never called.
func (s *Store) Resort() {
	if s.cmp != nil {
		slices.SortFunc(s.sorted, s.compare)
	}
}

// Sorted lends the stored replicas' entries in SortBy's order, or in
// insertion order if SortBy was never called. The slice is read-only and
// valid only until the store next changes.
func (s *Store) Sorted() []Entry { return s.sorted }

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
	e := newEntry(m)
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
	if s.cmp == nil {
		s.sorted = append(s.sorted, e)
	} else {
		i, _ := slices.BinarySearchFunc(s.sorted, e, s.compare)
		s.sorted = slices.Insert(s.sorted, i, e)
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

// RemoveFunc deletes every stored replica for which del returns true,
// without allocating. del sees each replica once, in insertion order; the
// replicas left keep both their orders.
func (s *Store) RemoveFunc(del func(*bundle.Message) bool) {
	s.order = slices.DeleteFunc(s.order, func(m *bundle.Message) bool {
		if !del(m) {
			return false
		}
		s.ids.Remove(m.ID)
		s.used -= m.Size
		return true
	})
	s.sorted = slices.DeleteFunc(s.sorted, func(e Entry) bool { return !s.ids.Has(e.ID()) })
}

// removeAt removes the replica at index i in insertion order, and its
// entry: at the same index in insertion order, found by pointer if sorted.
func (s *Store) removeAt(i int) *bundle.Message {
	m := s.order[i]
	s.order = slices.Delete(s.order, i, i+1)
	j := i
	if s.cmp != nil {
		j = slices.IndexFunc(s.sorted, func(e Entry) bool { return e.msg == m })
	}
	s.sorted = slices.Delete(s.sorted, j, j+1)
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

// CheckInvariants reports the first broken internal invariant, or nil:
// used is the sum of the stored sizes within capacity, the id set holds
// exactly the stored ids, the entries are the stored replicas in SortBy's
// order (insertion order without one), each entry's key is its replica's
// id and destination, and the deadline bound is at most every stored
// deadline.
func (s *Store) CheckInvariants() error {
	var used units.Bytes
	deadline := math.Inf(1)
	for i, m := range s.order {
		used += m.Size
		deadline = min(deadline, m.ExpiresAt())
		if j := s.index(m.ID); j != i {
			return fmt.Errorf("buffer: index desync for %v: found at %d, stored at %d", m.ID, j, i)
		}
	}
	if s.ids.Len() != len(s.order) {
		return errors.New("buffer: id set and slice length differ")
	}
	for _, e := range s.sorted {
		if e.ID() != e.msg.ID || e.To() != e.msg.To {
			return fmt.Errorf("buffer: entry key {%v %d} for replica {%v %d}", e.ID(), e.To(), e.msg.ID, e.msg.To)
		}
	}
	want := s.order
	if s.cmp != nil {
		want = slices.SortedStableFunc(slices.Values(s.order), s.cmp)
	}
	if !slices.EqualFunc(s.sorted, want, func(e Entry, m *bundle.Message) bool { return e.msg == m }) {
		return errors.New("buffer: entries are not a stable sort of the insertion order")
	}
	if used != s.used {
		return fmt.Errorf("buffer: used accounting drifted: %d != %d", used, s.used)
	}
	if s.deadline > deadline {
		return fmt.Errorf("buffer: deadline bound %v above earliest deadline %v", s.deadline, deadline)
	}
	if s.used > s.capacity {
		return errors.New("buffer: capacity exceeded")
	}
	return nil
}
