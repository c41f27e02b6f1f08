// Package event provides the discrete-event simulation kernel for the
// execution-driven timing model (§5): a time-ordered queue of callbacks
// with deterministic FIFO tie-breaking at equal timestamps.
//
// The queue is allocation-free on the hot path and invisible to the
// garbage collector. It is a 4-ary min-heap of pointer-free keys (time,
// scheduling sequence, slot index); each event's handler and argument
// wait in a slot slab recycled through a free list. Heap moves therefore
// copy plain integers — no write barriers, nothing for the GC to scan —
// and sift a hole instead of swapping, so each level costs one copy.
// Callers schedule a shared handler with a pointer-typed argument
// instead of allocating a fresh closure per event. Timing-simulator hot
// loops schedule millions of events per run, so all of this matters.
package event

// Time is simulated time in picoseconds. Picosecond resolution keeps all
// of the paper's parameters exact integers (0.8 ns per 8-byte flit on a
// 10 GB/s link = 800 ps).
type Time int64

// Common conversions.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
)

// Nanoseconds returns t in float nanoseconds for reporting.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

// ArgHandler is a scheduled callback carrying an opaque argument. One
// long-lived ArgHandler shared by many events replaces a per-event
// closure; passing a pointer-typed arg keeps scheduling allocation-free
// (pointers store into an interface without boxing).
type ArgHandler func(now Time, arg any)

// arity is the heap's fan-out. Four children per node halve the tree's
// depth against a binary heap, and the siblings a sift-down compares are
// adjacent in memory.
const arity = 4

// key is a queued event's position in the order. It holds no pointers,
// so the heap is never scanned by the GC and moving a key costs no write
// barrier.
type key struct {
	at   Time
	seq  uint64
	slot uint32
}

// less orders keys by (time, scheduling sequence): a strict total order,
// so the pop sequence is fully determined no matter how the heap
// internally arranges equal-keyed siblings.
func (a key) less(b key) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// slot holds a queued event's handler and argument.
type slot struct {
	fn  ArgHandler
	arg any
}

// Loop is a discrete-event simulator. The zero value is ready to use.
type Loop struct {
	q     []key
	slots []slot
	free  []uint32 // indices of unused slots
	now   Time
	seq   uint64
}

// Now returns the current simulation time.
func (l *Loop) Now() Time { return l.now }

// AtArg schedules fn(at, arg) at absolute time at. Scheduling in the past
// (before Now) fires the handler at the current time instead — events
// cannot rewrite history. fn is typically a long-lived handler bound
// once, arg a pointer to the event's subject.
func (l *Loop) AtArg(at Time, fn ArgHandler, arg any) {
	if at < l.now {
		at = l.now
	}
	var s uint32
	if n := len(l.free); n > 0 {
		s = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		s = uint32(len(l.slots))
		l.slots = append(l.slots, slot{})
	}
	l.slots[s] = slot{fn: fn, arg: arg}
	l.seq++
	l.push(key{at: at, seq: l.seq, slot: s})
}

// AfterArg schedules fn(now+d, arg) relative to the current time.
func (l *Loop) AfterArg(d Time, fn ArgHandler, arg any) { l.AtArg(l.now+d, fn, arg) }

// push inserts k, moving the hole up from the end until k's parent is
// no greater.
func (l *Loop) push(k key) {
	l.q = append(l.q, k)
	i := len(l.q) - 1
	for i > 0 {
		parent := (i - 1) / arity
		if !k.less(l.q[parent]) {
			break
		}
		l.q[i] = l.q[parent]
		i = parent
	}
	l.q[i] = k
}

// pop removes and returns the minimum key. The queue must be non-empty.
// The last key fills the root's hole, which sinks to where that key
// belongs.
func (l *Loop) pop() key {
	top := l.q[0]
	n := len(l.q) - 1
	last := l.q[n]
	l.q = l.q[:n]
	if n == 0 {
		return top
	}
	i := 0
	for {
		first := arity*i + 1
		if first >= n {
			break
		}
		m := first
		for c := first + 1; c < min(first+arity, n); c++ {
			if l.q[c].less(l.q[m]) {
				m = c
			}
		}
		if !l.q[m].less(last) {
			break
		}
		l.q[i] = l.q[m]
		i = m
	}
	l.q[i] = last
	return top
}

// Empty reports whether no events remain.
func (l *Loop) Empty() bool { return len(l.q) == 0 }

// Step runs the earliest event. It reports false when the queue is empty.
func (l *Loop) Step() bool {
	if len(l.q) == 0 {
		return false
	}
	k := l.pop()
	l.now = k.at
	s := &l.slots[k.slot]
	fn, arg := s.fn, s.arg
	*s = slot{} // drop the references; the slot is free for reuse
	l.free = append(l.free, k.slot)
	fn(l.now, arg)
	return true
}

// Run drains the queue, returning the time of the last event.
func (l *Loop) Run() Time {
	for l.Step() {
	}
	return l.now
}
