package bundle

import (
	"fmt"
	"math/bits"
)

// IDSet is a set of message ids kept as a bitset indexed by id. Factory
// mints ids densely from 1, so the set takes one bit per id minted up to
// the largest it holds, and membership is one load and a mask. The zero
// value is an empty set. Adding a negative id panics; it is never a member.
type IDSet struct {
	words []uint64
	n     int
}

// Has reports whether id is in the set.
func (s *IDSet) Has(id ID) bool {
	w := uint64(id) / 64 // a negative id lands far past the end
	return w < uint64(len(s.words)) && s.words[w]&(1<<(uint64(id)%64)) != 0
}

// Add inserts id and reports whether it was absent.
func (s *IDSet) Add(id ID) bool {
	if id < 0 {
		panic(fmt.Sprintf("bundle: negative message id %d", id))
	}
	if s.Has(id) {
		return false
	}
	w := int(id / 64)
	if w >= len(s.words) {
		s.words = append(s.words, make([]uint64, w+1-len(s.words))...)
	}
	s.words[w] |= 1 << (id % 64)
	s.n++
	return true
}

// Remove deletes id if present.
func (s *IDSet) Remove(id ID) {
	if s.Has(id) {
		s.words[id/64] &^= 1 << (id % 64)
		s.n--
	}
}

// Len returns the number of ids in the set.
func (s *IDSet) Len() int { return s.n }

// Union adds every id in t to s.
func (s *IDSet) Union(t *IDSet) {
	if len(t.words) > len(s.words) {
		s.words = append(s.words, make([]uint64, len(t.words)-len(s.words))...)
	}
	for i, w := range t.words {
		s.n += bits.OnesCount64(w &^ s.words[i])
		s.words[i] |= w
	}
}

// NumWords returns how many words the set spans: every member is below
// 64·NumWords().
func (s *IDSet) NumWords() int { return len(s.words) }

// AppendWords appends the set's first n words to dst, a zero word for
// each past the set's end, and returns the extended slice: the set's
// members below 64·n, for IDWords to read.
func (s *IDSet) AppendWords(dst []uint64, n int) []uint64 {
	k := min(n, len(s.words))
	dst = append(dst, s.words[:k]...)
	for ; k < n; k++ {
		dst = append(dst, 0)
	}
	return dst
}

// IDWords is a read-only copy of an IDSet's first words, as AppendWords
// makes it.
type IDWords []uint64

// Has reports whether id is in the copied set.
func (w IDWords) Has(id ID) bool {
	i := uint64(id) / 64 // a negative id lands far past the end
	return i < uint64(len(w)) && w[i]&(1<<(uint64(id)%64)) != 0
}
