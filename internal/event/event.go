// Package event provides the discrete-event simulation kernel for the
// execution-driven timing model (§5): a time-ordered queue of callbacks
// with deterministic FIFO tie-breaking at equal timestamps.
//
// The queue is a timing wheel over the picosecond clock, after R. Brown's
// calendar queue ("Calendar Queues", CACM 31(10), 1988). A ring of 64
// buckets, each 4,096 ps wide, covers the 262 ns from the current
// bucket on; nearly every event the timing model schedules lands there.
// Each bucket is a list kept in (time, scheduling order), and one bit per
// bucket marks the occupied ones, so the earliest event is one rotate
// and one trailing-zero count away. Events beyond the ring's span wait
// in a small 4-ary min-heap of (time, scheduling sequence) keys; a pop
// takes the heap's top when it is due no later than the wheel's first
// event. At equal times that is the right order: the far event was
// scheduled from an earlier Now, so it was scheduled first.
//
// The queue is allocation-free on the hot path and invisible to the
// garbage collector. Bucket lists are threaded through a slab of
// pointer-free links, and the heap holds pointer-free keys, so pushing
// and popping copy plain integers: no write barriers, nothing for the GC
// to scan. Each event's handler and argument wait in a slot slab
// recycled through a free list. Callers schedule a shared handler with a
// pointer-typed argument instead of allocating a fresh closure per
// event. Timing-simulator hot loops schedule millions of events per run,
// so all of this matters.
package event

import "math/bits"

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

// The wheel's geometry. A bucket spans 2^bucketBits ps (4.096 ns), and
// Loop.occupied has one bit per bucket, so the ring spans 262.144 ns:
// past the half traversal (25 ns), memory (80 ns) and L2 (12 ns) delays
// that most events are scheduled at. The order tests restate these
// values, so that they also run against other queues.
const (
	bucketBits = 12
	buckets    = 64
)

// arity is the far heap's fan-out. Four children per node halve the
// tree's depth against a binary heap, and the siblings a sift-down
// compares are adjacent in memory.
const arity = 4

// link threads a wheel event into its bucket's list. The last event's
// next is the first, so one index per bucket reaches both ends.
type link struct {
	at   Time
	next uint32
}

// key is a far event's position in the heap order.
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
	slots []slot
	links []link   // links[s] threads slot s's event while it is on the wheel
	free  []uint32 // indices of unused slots
	far   []key    // heap of the events beyond the wheel's span
	// last[b] is the last event of bucket b's list while b is occupied.
	last     [buckets]uint32
	occupied uint64 // bit b is set while bucket b holds an event
	now      Time
	seq      uint64 // far events scheduled so far
}

// Now returns the current simulation time.
func (l *Loop) Now() Time { return l.now }

// Reset empties the loop and winds its clock back to zero, keeping the
// capacity its slot slab, free list and far heap grew to, so that one
// loop serves run after run without allocating. Events still queued, as
// an abandoned run leaves them, are dropped.
func (l *Loop) Reset() {
	clear(l.slots)
	*l = Loop{slots: l.slots[:0], links: l.links[:0], free: l.free[:0], far: l.far[:0]}
}

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
		l.links = append(l.links, link{})
	}
	l.slots[s] = slot{fn: fn, arg: arg}
	if (at>>bucketBits)-(l.now>>bucketBits) >= buckets {
		l.seq++
		l.push(key{at: at, seq: l.seq, slot: s})
		return
	}
	l.insert(at, s)
}

// AfterArg schedules fn(now+d, arg) relative to the current time.
func (l *Loop) AfterArg(d Time, fn ArgHandler, arg any) { l.AtArg(l.now+d, fn, arg) }

// insert puts slot s, due at at, on the wheel after every event of its
// bucket due no later. Every wheel event lies in the ring's span from
// Now's bucket on, so no two of them that share a ring bucket lie a
// whole turn apart.
func (l *Loop) insert(at Time, s uint32) {
	b := uint(at>>bucketBits) % buckets
	l.links[s].at = at
	if l.occupied&(1<<b) == 0 {
		l.links[s].next = s
		l.last[b] = s
		l.occupied |= 1 << b
		return
	}
	p := l.last[b]
	if at >= l.links[p].at {
		l.last[b] = s
	} else {
		// Find the last event due no later, from the bucket's first on;
		// the last event is due later, so the walk stops before it.
		for n := l.links[p].next; l.links[n].at <= at; n = l.links[n].next {
			p = n
		}
	}
	l.links[s].next = l.links[p].next
	l.links[p].next = s
}

// pop removes the earliest event and returns its time and slot. The
// queue must be non-empty. The wheel's first event is the first of the
// first occupied bucket from Now's on; a far event due at the same time
// goes first.
func (l *Loop) pop() (Time, uint32) {
	if l.occupied != 0 {
		cur := uint(l.now>>bucketBits) % buckets
		b := (cur + uint(bits.TrailingZeros64(bits.RotateLeft64(l.occupied, -int(cur))))) % buckets
		last := l.last[b]
		first := l.links[last].next
		if at := l.links[first].at; len(l.far) == 0 || at < l.far[0].at {
			if first == last {
				l.occupied &^= 1 << b
			} else {
				l.links[last].next = l.links[first].next
			}
			return at, first
		}
	}
	k := l.popFar()
	return k.at, k.slot
}

// push inserts k into the far heap, moving the hole up from the end
// until k's parent is no greater.
func (l *Loop) push(k key) {
	l.far = append(l.far, k)
	i := len(l.far) - 1
	for i > 0 {
		parent := (i - 1) / arity
		if !k.less(l.far[parent]) {
			break
		}
		l.far[i] = l.far[parent]
		i = parent
	}
	l.far[i] = k
}

// popFar removes and returns the far heap's minimum key. The heap must
// be non-empty. The last key fills the root's hole, which sinks to where
// that key belongs.
func (l *Loop) popFar() key {
	top := l.far[0]
	n := len(l.far) - 1
	last := l.far[n]
	l.far = l.far[:n]
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
			if l.far[c].less(l.far[m]) {
				m = c
			}
		}
		if !l.far[m].less(last) {
			break
		}
		l.far[i] = l.far[m]
		i = m
	}
	l.far[i] = last
	return top
}

// Empty reports whether no events remain.
func (l *Loop) Empty() bool { return l.occupied == 0 && len(l.far) == 0 }

// Step runs the earliest event. It reports false when the queue is empty.
func (l *Loop) Step() bool {
	if l.Empty() {
		return false
	}
	at, i := l.pop()
	l.now = at
	s := &l.slots[i]
	fn, arg := s.fn, s.arg
	*s = slot{} // drop the references; the slot is free for reuse
	l.free = append(l.free, i)
	fn(l.now, arg)
	return true
}

// Run drains the queue, returning the time of the last event.
func (l *Loop) Run() Time {
	for l.Step() {
	}
	return l.now
}
