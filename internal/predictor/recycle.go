package predictor

import "destset/internal/freelist"

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

// banks is the process-wide free list of recycled banks. It lists a
// bank by its members field, which every policy's bank has whatever its
// entry type: a weak pointer to a field refers to the whole bank.
var banks freelist.List[freeKey, []Predictor]

func (m member[E]) recycle() {
	b := m.bank
	banks.Put(freeKey{b.cfg, len(b.members)}, &b.members)
}

// takeMembers returns the members of an idle bank of key that no
// collection has freed, reset as newMembers builds one, or nil when
// there is none.
func takeMembers(key freeKey) []Predictor {
	ms := banks.Take(key)
	if ms == nil {
		return nil
	}
	(*ms)[0].(tableMember).reset()
	return *ms
}

func (m member[E]) reset() { m.bank.reset() }

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
