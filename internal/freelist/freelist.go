// Package freelist is a free list that holds its idle values only
// through weak pointers. A value on the list is not live heap: the next
// collection frees it unless a Take has had it first, so a list never
// pins memory, however many values it was handed.
package freelist

import (
	"sync"
	"weak"
)

// List holds idle *V values by key. The zero value is empty and ready;
// a List is safe for concurrent use.
type List[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K][]weak.Pointer[V]
}

// Put lists v as idle under k; a value listed twice is listed once. The
// caller must not use v afterwards: a Take may hand it to another caller
// at any time. Put drops the entries of values a collection has freed,
// so a key lists at most its idle values.
func (l *List[K, V]) Put(k K, v *V) {
	w := weak.Make(v)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.m == nil {
		l.m = make(map[K][]weak.Pointer[V])
	}
	live, listed := l.m[k][:0], false
	for _, e := range l.m[k] {
		if e.Value() != nil {
			live = append(live, e)
			listed = listed || e == w
		}
	}
	if !listed {
		live = append(live, w)
	}
	l.m[k] = live
}

// Take removes an idle value of k that no collection has freed from the
// list and returns it, or returns nil when there is none.
func (l *List[K, V]) Take(k K) *V {
	l.mu.Lock()
	defer l.mu.Unlock()
	for s := l.m[k]; len(s) > 0; {
		v := s[len(s)-1].Value()
		s = s[:len(s)-1]
		if v != nil {
			l.m[k] = s
			return v
		}
	}
	delete(l.m, k)
	return nil
}

// Len returns how many entries the list holds, counting those of values
// a collection has freed since they were put.
func (l *List[K, V]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, s := range l.m {
		n += len(s)
	}
	return n
}
