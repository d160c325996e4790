package bundle

import (
	"math/bits"
	"slices"
)

// NodeSet is a set of node ids. Ids 0..63 live in one word, so a set over
// them is copied with the struct and costs no allocation; any other id,
// negative ones included, goes to a short slice. Copies of a set share
// that slice clipped to its length, so adding to one never shows in
// another. The zero value is an empty set.
type NodeSet struct {
	low  uint64 // bit i is node i, for 0 <= i < 64
	rest []int  // members outside 0..63, in insertion order
}

// Has reports whether id is in the set.
func (s *NodeSet) Has(id int) bool {
	if uint(id) < 64 {
		return s.low&(1<<uint(id)) != 0
	}
	return slices.Contains(s.rest, id)
}

// Add inserts id.
func (s *NodeSet) Add(id int) {
	switch {
	case uint(id) < 64:
		s.low |= 1 << uint(id)
	case !slices.Contains(s.rest, id):
		s.rest = append(s.rest, id)
	}
}

// Len returns the number of ids in the set.
func (s *NodeSet) Len() int { return bits.OnesCount64(s.low) + len(s.rest) }

// clone returns a copy that shares no appendable storage with s.
func (s *NodeSet) clone() NodeSet { return NodeSet{low: s.low, rest: slices.Clip(s.rest)} }
