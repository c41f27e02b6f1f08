package freelist

import (
	"runtime"
	"testing"
)

// val is big enough, and holds a pointer, so the allocator never batches
// two of them in one slot: a collection frees each on its own.
type val struct {
	p *int
	_ [56]byte
}

func TestTakeReturnsPutValues(t *testing.T) {
	var l List[int, val]
	a, b := new(val), new(val)
	l.Put(1, a)
	l.Put(1, b)
	l.Put(1, a)
	if n := l.Len(); n != 2 {
		t.Errorf("Len = %d after putting two values, one twice; want 2", n)
	}
	if l.Take(2) != nil {
		t.Error("Take of a key never put returned a value")
	}
	if got := l.Take(1); got != a && got != b {
		t.Fatalf("Take returned %p, want one of the values put", got)
	}
	if l.Take(1) == nil || l.Take(1) != nil {
		t.Error("Take did not return each value put exactly once")
	}
	runtime.KeepAlive(a)
	runtime.KeepAlive(b)
}

func TestCollectedValuesAreDropped(t *testing.T) {
	var l List[int, val]
	l.Put(1, new(val))
	runtime.GC()
	if l.Take(1) != nil {
		t.Fatal("Take returned a value that only the list referenced after a collection")
	}
	l.Put(1, new(val))
	runtime.GC()
	kept := new(val)
	l.Put(1, kept)
	if n := l.Len(); n != 1 {
		t.Errorf("Len = %d after a Put past a collected value, want 1", n)
	}
	if l.Take(1) != kept {
		t.Error("Take lost the live value")
	}
}
