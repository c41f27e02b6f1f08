// Package nodeset implements destination sets: sets of processor/memory
// nodes that receive a coherence request.
//
// The destination set is the central datatype of destination-set prediction
// (Martin et al., ISCA 2003). A snooping protocol uses the maximal set (all
// nodes), a directory protocol the minimal set ({requester, home}), and a
// hybrid protocol a predicted set in between. Sets are represented as bit
// sets over at most MaxNodes nodes so that union, intersection and
// superset tests are single machine operations.
package nodeset

import (
	"fmt"
	"math/bits"
	"strings"
)

// MaxNodes is the largest number of nodes a Set can represent.
const MaxNodes = 64

// NodeID identifies a processor/memory node. Memory controllers are
// co-located with processor nodes (as in the paper's target system), so a
// block's home is also a NodeID.
type NodeID uint8

// Set is a destination set: a bit set of node IDs. The zero value is the
// empty set and is ready to use.
type Set uint64

// Of returns a Set containing exactly the given nodes. Per-miss paths
// use Single and Pair instead: a variadic call builds its slice and
// loops over it on every miss.
func Of(nodes ...NodeID) Set {
	var s Set
	for _, n := range nodes {
		s = s.Add(n)
	}
	return s
}

// Single returns the set {n}.
func Single(n NodeID) Set { return 1 << uint(n) }

// Pair returns the set {a, b}, which is {a} when a == b.
func Pair(a, b NodeID) Set { return 1<<uint(a) | 1<<uint(b) }

// All returns the maximal destination set for a system of n nodes
// (the broadcast set). It panics if n is out of range.
func All(n int) Set {
	if n <= 0 || n > MaxNodes {
		panic(fmt.Sprintf("nodeset: All(%d) out of range 1..%d", n, MaxNodes))
	}
	if n == MaxNodes {
		return ^Set(0)
	}
	return Set(1)<<uint(n) - 1
}

// Add returns s with node n added.
func (s Set) Add(n NodeID) Set { return s | 1<<uint(n) }

// Remove returns s with node n removed.
func (s Set) Remove(n NodeID) Set { return s &^ (1 << uint(n)) }

// Contains reports whether n is a member of s.
func (s Set) Contains(n NodeID) bool { return s&(1<<uint(n)) != 0 }

// Union returns the union of s and t.
func (s Set) Union(t Set) Set { return s | t }

// Intersect returns the intersection of s and t.
func (s Set) Intersect(t Set) Set { return s & t }

// Minus returns the set difference s \ t.
func (s Set) Minus(t Set) Set { return s &^ t }

// Superset reports whether s contains every member of t. A request sent to
// destination set s is sufficient when s is a superset of the needed set.
func (s Set) Superset(t Set) bool { return t&^s == 0 }

// Count returns the number of members of s. This is the request-message
// fan-out used for bandwidth accounting.
func (s Set) Count() int { return bits.OnesCount64(uint64(s)) }

// Empty reports whether s has no members.
func (s Set) Empty() bool { return s == 0 }

// ForEach calls fn for each member of s in increasing node order.
func (s Set) ForEach(fn func(NodeID)) {
	for s != 0 {
		n := NodeID(bits.TrailingZeros64(uint64(s)))
		fn(n)
		s = s.Remove(n)
	}
}

// Nodes returns the members of s in increasing order.
func (s Set) Nodes() []NodeID {
	out := make([]NodeID, 0, s.Count())
	s.ForEach(func(n NodeID) { out = append(out, n) })
	return out
}

// First returns the lowest-numbered member of s. It panics on the empty set.
func (s Set) First() NodeID {
	if s == 0 {
		panic("nodeset: First of empty set")
	}
	return NodeID(bits.TrailingZeros64(uint64(s)))
}

// String renders the set as {0,3,5} for debugging and logs.
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(n NodeID) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%d", n)
	})
	b.WriteByte('}')
	return b.String()
}
