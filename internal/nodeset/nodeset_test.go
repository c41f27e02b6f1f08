package nodeset

import (
	"testing"
	"testing/quick"
)

func TestEmptySet(t *testing.T) {
	var s Set
	if !s.Empty() {
		t.Error("zero Set should be empty")
	}
	if s.Count() != 0 {
		t.Errorf("Count() = %d, want 0", s.Count())
	}
	if s.Contains(0) {
		t.Error("empty set should not contain node 0")
	}
	if got := s.String(); got != "{}" {
		t.Errorf("String() = %q, want {}", got)
	}
}

func TestOf(t *testing.T) {
	s := Of(1, 5, 9)
	for _, n := range []NodeID{1, 5, 9} {
		if !s.Contains(n) {
			t.Errorf("Of(1,5,9) should contain %d", n)
		}
	}
	for _, n := range []NodeID{0, 2, 8, 15} {
		if s.Contains(n) {
			t.Errorf("Of(1,5,9) should not contain %d", n)
		}
	}
	if s.Count() != 3 {
		t.Errorf("Count() = %d, want 3", s.Count())
	}
	// The fixed-arity forms equal Of for every node and every pair,
	// a == b and node 63 included.
	for a := NodeID(0); a < MaxNodes; a++ {
		if Single(a) != Of(a) {
			t.Errorf("Single(%d) = %v, Of = %v", a, Single(a), Of(a))
		}
		for b := NodeID(0); b < MaxNodes; b++ {
			if Pair(a, b) != Of(a, b) {
				t.Errorf("Pair(%d, %d) = %v, Of = %v", a, b, Pair(a, b), Of(a, b))
			}
		}
	}
}

func TestAddRemove(t *testing.T) {
	var s Set
	s = s.Add(7)
	if !s.Contains(7) {
		t.Error("Add(7) not reflected")
	}
	s = s.Add(7) // idempotent
	if s.Count() != 1 {
		t.Errorf("double Add: Count() = %d, want 1", s.Count())
	}
	s = s.Remove(7)
	if s.Contains(7) || !s.Empty() {
		t.Error("Remove(7) not reflected")
	}
	s = s.Remove(7) // removing absent member is a no-op
	if !s.Empty() {
		t.Error("Remove on empty set should stay empty")
	}
}

func TestAll(t *testing.T) {
	for _, n := range []int{1, 2, 16, 63, 64} {
		s := All(n)
		if s.Count() != n {
			t.Errorf("All(%d).Count() = %d", n, s.Count())
		}
		if !s.Contains(NodeID(n - 1)) {
			t.Errorf("All(%d) missing node %d", n, n-1)
		}
		if n < MaxNodes && s.Contains(NodeID(n)) {
			t.Errorf("All(%d) should not contain node %d", n, n)
		}
	}
}

func TestAllPanics(t *testing.T) {
	for _, n := range []int{0, -1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("All(%d) should panic", n)
				}
			}()
			All(n)
		}()
	}
}

func TestSetAlgebra(t *testing.T) {
	a := Of(0, 1, 2)
	b := Of(2, 3)
	if got := a.Union(b); got != Of(0, 1, 2, 3) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b); got != Of(2) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Minus(b); got != Of(0, 1) {
		t.Errorf("Minus = %v", got)
	}
}

func TestSuperset(t *testing.T) {
	cases := []struct {
		s, t Set
		want bool
	}{
		{Of(0, 1, 2), Of(1), true},
		{Of(0, 1, 2), Of(0, 1, 2), true},
		{Of(0, 1), Of(2), false},
		{Of(), Of(), true},
		{Of(5), Of(), true},
		{Of(), Of(5), false},
	}
	for _, c := range cases {
		if got := c.s.Superset(c.t); got != c.want {
			t.Errorf("%v.Superset(%v) = %v, want %v", c.s, c.t, got, c.want)
		}
	}
}

func TestForEachOrder(t *testing.T) {
	s := Of(9, 1, 15, 4)
	var got []NodeID
	s.ForEach(func(n NodeID) { got = append(got, n) })
	want := []NodeID{1, 4, 9, 15}
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach visited %v, want %v", got, want)
		}
	}
}

func TestNodesMatchesForEach(t *testing.T) {
	s := Of(2, 3, 11)
	nodes := s.Nodes()
	if len(nodes) != 3 || nodes[0] != 2 || nodes[1] != 3 || nodes[2] != 11 {
		t.Errorf("Nodes() = %v", nodes)
	}
}

func TestFirst(t *testing.T) {
	if got := Of(9, 4, 15).First(); got != 4 {
		t.Errorf("First() = %d, want 4", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("First of empty set should panic")
		}
	}()
	Set(0).First()
}

func TestString(t *testing.T) {
	if got := Of(0, 3, 15).String(); got != "{0,3,15}" {
		t.Errorf("String() = %q", got)
	}
}

// Property: union is a superset of both operands; intersection is a subset.
func TestQuickUnionIntersect(t *testing.T) {
	f := func(a, b uint64) bool {
		s, u := Set(a), Set(b)
		un := s.Union(u)
		in := s.Intersect(u)
		return un.Superset(s) && un.Superset(u) && s.Superset(in) && u.Superset(in)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Minus removes exactly the intersection.
func TestQuickMinus(t *testing.T) {
	f := func(a, b uint64) bool {
		s, u := Set(a), Set(b)
		d := s.Minus(u)
		return d.Intersect(u).Empty() && d.Union(s.Intersect(u)) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Count equals the number of nodes visited by ForEach.
func TestQuickCount(t *testing.T) {
	f := func(a uint64) bool {
		s := Set(a)
		n := 0
		s.ForEach(func(NodeID) { n++ })
		return n == s.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Add then Contains; Remove then not Contains.
func TestQuickAddRemove(t *testing.T) {
	f := func(a uint64, n uint8) bool {
		id := NodeID(n % MaxNodes)
		s := Set(a)
		return s.Add(id).Contains(id) && !s.Remove(id).Contains(id)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
