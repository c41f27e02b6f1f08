package predictor

import (
	"sync"
	"weak"
)

// Recycle hands back a bank its caller is done with, so that a later
// NewBank of the same configuration can reset it and return it instead
// of allocating and zeroing a new one. It takes only a whole bank that
// NewBank built with a finite Owner, BroadcastIfShared, Group or
// OwnerGroup table, in node order (as StepOf does), and ignores any
// other, nil included.
//
// The caller must be the bank's only user, and no member may be used
// once it is recycled: NewBank may reset the bank and hand it to
// another caller at any time. Only code that built a bank for one run
// and showed it to nobody else should recycle it.
//
// The free list holds each idle bank only through a weak pointer, so an
// idle bank is not live heap and pins no memory: the next collection
// frees it unless NewBank has taken it first.
func Recycle(preds []Predictor) {
	if len(preds) == 0 {
		return
	}
	if m, ok := preds[0].(tableMember); ok && m.whole(preds) && m.config().Entries > 0 {
		m.recycle()
	}
}

// freeKey names the banks one free list holds: the normalized
// configuration newBank built them from and their member count.
type freeKey struct {
	cfg Config
	n   int
}

// free is the process-wide free list of recycled banks. Each entry is a
// weak.Pointer[tableBank[E]] of its key's policy's entry type E.
var free = struct {
	sync.Mutex
	m map[freeKey][]any
}{m: make(map[freeKey][]any)}

func (m member[E]) recycle() {
	b := m.bank
	key := freeKey{b.cfg, len(b.members)}
	free.Lock()
	defer free.Unlock()
	if b.idle {
		return // recycled twice: one entry is enough
	}
	b.idle = true
	// Drop the entries of banks a collection has freed, so a key's list
	// holds at most its idle banks.
	l := free.m[key][:0]
	for _, w := range free.m[key] {
		if w.(weak.Pointer[tableBank[E]]).Value() != nil {
			l = append(l, w)
		}
	}
	free.m[key] = append(l, weak.Make(b))
}

// takeBank returns an idle bank of key that no collection has freed,
// reset as newMembers builds one, or nil when there is none.
func takeBank[E any](key freeKey) *tableBank[E] {
	free.Lock()
	defer free.Unlock()
	l := free.m[key]
	for len(l) > 0 {
		w := l[len(l)-1].(weak.Pointer[tableBank[E]])
		l[len(l)-1] = nil
		l = l[:len(l)-1]
		if b := w.Value(); b != nil {
			free.m[key] = l
			b.idle = false
			b.reset()
			return b
		}
	}
	delete(free.m, key)
	return nil
}

// reset empties a recycled bank's tables and zeroes their counters. It
// leaves the lines as they are: nothing reads a line past its set's
// fill count (hitIn, allocIn and the bank step's front-line check all
// stop there), and allocIn zeroes a line's entry when it takes it.
func (b *tableBank[E]) reset() {
	clear(b.tables[0].fill)
	for i := range b.tables {
		t := &b.tables[i]
		t.lookups, t.hits, t.allocs, t.evictions = 0, 0, 0, 0
	}
}
