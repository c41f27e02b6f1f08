package event

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

// mark returns a handler that appends v to *got when it fires.
func mark(got *[]int, v int) ArgHandler {
	return func(Time, any) { *got = append(*got, v) }
}

func TestOrdering(t *testing.T) {
	var l Loop
	var got []int
	l.AtArg(30, mark(&got, 3), nil)
	l.AtArg(10, mark(&got, 1), nil)
	l.AtArg(20, mark(&got, 2), nil)
	end := l.Run()
	if end != 30 {
		t.Errorf("end time = %d, want 30", end)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v", got)
	}
}

func TestFIFOTieBreak(t *testing.T) {
	var l Loop
	var got []int
	for i := 0; i < 10; i++ {
		l.AtArg(5, mark(&got, i), nil)
	}
	l.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events out of FIFO order: %v", got)
		}
	}
}

func TestHandlerSchedulesMore(t *testing.T) {
	var l Loop
	count := 0
	var tick ArgHandler
	tick = func(now Time, _ any) {
		count++
		if count < 5 {
			l.AfterArg(10, tick, nil)
		}
	}
	l.AtArg(0, tick, nil)
	end := l.Run()
	if count != 5 {
		t.Errorf("count = %d, want 5", count)
	}
	if end != 40 {
		t.Errorf("end = %d, want 40", end)
	}
}

func TestPastSchedulingClamps(t *testing.T) {
	var l Loop
	var fired Time = -1
	l.AtArg(100, func(Time, any) {
		l.AtArg(5, func(now Time, _ any) { fired = now }, nil) // in the past
	}, nil)
	l.Run()
	if fired != 100 {
		t.Errorf("past event fired at %d, want clamped to 100", fired)
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	var l Loop
	var fired Time
	l.AtArg(50, func(Time, any) {
		l.AfterArg(25, func(now Time, _ any) { fired = now }, nil)
	}, nil)
	l.Run()
	if fired != 75 {
		t.Errorf("After fired at %d, want 75", fired)
	}
}

func TestEmptyAndStep(t *testing.T) {
	var l Loop
	if !l.Empty() {
		t.Error("new loop should be empty")
	}
	if l.Step() {
		t.Error("Step on empty loop should report false")
	}
	l.AtArg(1, func(Time, any) {}, nil)
	if l.Empty() {
		t.Error("loop with event should not be empty")
	}
}

func TestTimeConversions(t *testing.T) {
	if Nanosecond != 1000*Picosecond {
		t.Error("time unit mismatch")
	}
	if got := (2500 * Picosecond).Nanoseconds(); got != 2.5 {
		t.Errorf("Nanoseconds() = %v, want 2.5", got)
	}
}

// Property: events always fire in non-decreasing time order.
func TestQuickMonotonic(t *testing.T) {
	f := func(times []int16) bool {
		var l Loop
		var fired []Time
		record := func(now Time, _ any) { fired = append(fired, now) }
		for _, at := range times {
			t := Time(at)
			if t < 0 {
				t = -t
			}
			l.AtArg(t, record, nil)
		}
		l.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(times)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// firing is one handler invocation: which event ran, and when.
type firing struct {
	id int
	at Time
}

// child is an event that a firing schedules (or, in a program's initial
// list, one scheduled at time 0): delay after the firing's time, or,
// with edge set, delay after the start of the wheelBucket its time
// falls in, so that it can land exactly on a bucket or horizon edge.
type child struct {
	delay Time
	edge  bool
	id    int
}

// at is the time c is scheduled for when its parent fires at now.
func (c child) at(now Time) Time {
	if c.edge {
		return now - now%wheelBucket + c.delay
	}
	return now + c.delay
}

// program is a schedule: the events scheduled at time 0, and the
// children each event schedules when it fires.
type program struct {
	initial  []child
	children [][]child
}

// add returns the id of a new event with no children yet.
func (p *program) add() int {
	p.children = append(p.children, nil)
	return len(p.children) - 1
}

// run fires p on a new Loop.
func (p *program) run() []firing { return p.runOn(&Loop{}) }

// runOn fires p on l, which must be empty at time 0. Children with a
// plain delay go through AfterArg, the rest through AtArg.
func (p *program) runOn(l *Loop) []firing {
	var got []firing
	var fire ArgHandler
	fire = func(now Time, arg any) {
		id := arg.(int)
		got = append(got, firing{id, now})
		for _, c := range p.children[id] {
			if c.edge {
				l.AtArg(c.at(now), fire, c.id)
			} else {
				l.AfterArg(c.delay, fire, c.id)
			}
		}
	}
	for _, c := range p.initial {
		l.AtArg(c.delay, fire, c.id)
	}
	l.Run()
	return got
}

// reference fires p on a reference queue that keeps every pending event
// in a list and always picks the smallest (clamped time, scheduling
// order).
func (p *program) reference() []firing {
	type pending struct {
		at  Time
		seq int
		id  int
	}
	var q []pending
	var want []firing
	now, seq := Time(0), 0
	schedule := func(at Time, id int) {
		seq++
		q = append(q, pending{max(at, now), seq, id})
	}
	for _, c := range p.initial {
		schedule(c.delay, c.id)
	}
	for len(q) > 0 {
		m := 0
		for i, e := range q {
			if e.at < q[m].at || e.at == q[m].at && e.seq < q[m].seq {
				m = i
			}
		}
		e := q[m]
		q = slices.Delete(q, m, m+1)
		now = e.at
		want = append(want, firing{e.id, now})
		for _, c := range p.children[e.id] {
			schedule(c.at(now), c.id)
		}
	}
	return want
}

// TestOrderMatchesReference is a differential property test of the
// queue's order. Random programs schedule events at times drawn from a
// narrow range (so many collide) including past times that clamp, and
// their handlers schedule further events at the current instant, in
// the past and later. The loop must fire exactly the sequence of a
// reference that keeps every pending event in a list and always picks
// the smallest (clamped time, scheduling order).
func TestOrderMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x5eed))
		// p.children[id] lists the events id schedules when it fires;
		// delays may be negative (clamped) or zero.
		var p program
		for n := rng.IntN(200); len(p.initial) < n; {
			p.initial = append(p.initial, child{delay: Time(rng.IntN(60) - 10), id: p.add()})
		}
		for id := 0; id < len(p.children) && len(p.children) < 1500; id++ {
			for k := rng.IntN(4); k > 0; k-- {
				p.children[id] = append(p.children[id], child{delay: Time(rng.IntN(30) - 8), id: p.add()})
			}
		}
		if got, want := p.run(), p.reference(); !slices.Equal(got, want) {
			t.Fatalf("seed %d: firing order diverges from the reference\n got %v\nwant %v", seed, got, want)
		}
	}
}

// The timing wheel's geometry (event.go's bucketBits and buckets),
// restated so that the order tests run against any queue.
const (
	wheelBucket = 4096 * Picosecond
	wheelSpan   = 64 * wheelBucket
)

// paperLatencies are delays the timing model schedules most of its
// events at: an instant, an 8-byte flit on a 10 GB/s link, the L2, half
// a traversal (the most common), a traversal and memory.
var paperLatencies = [...]Time{0, 800, 12 * Nanosecond, 25 * Nanosecond, 50 * Nanosecond, 80 * Nanosecond}

// spanChild is event id scheduled at a delay of the given kind across
// the wheel's geometry; mag picks the delay within its kind.
func spanChild(kind byte, mag uint16, id int) child {
	m := Time(mag)
	switch kind % 8 {
	case 0: // in the past (clamped), now, or a few ps later
		return child{delay: m%24 - 8, id: id}
	case 1: // within the current bucket or into the next
		return child{delay: m % (2 * wheelBucket), id: id}
	case 2: // anywhere in the span
		return child{delay: m * 4 % wheelSpan, id: id}
	case 3: // a bucket's first picosecond or the one before it, up to two buckets past the span
		return child{delay: m%66*wheelBucket - m>>15, edge: true, id: id}
	case 4: // the span's last picosecond, the first beyond it, or the next
		return child{delay: wheelSpan - 1 + m%3, edge: true, id: id}
	case 5: // one span from now, give or take a picosecond
		return child{delay: wheelSpan - 1 + m%3, id: id}
	case 6: // far: up to 17 spans ahead
		return child{delay: wheelSpan + m*64, id: id}
	default:
		return child{delay: paperLatencies[int(m)%len(paperLatencies)], id: id}
	}
}

// TestOrderMatchesReferenceAcrossBuckets is TestOrderMatchesReference
// over the wheel's whole geometry: delays within a bucket and across
// many, on bucket edges and on the horizon's, and far beyond it, where
// far events land on the same instants as later-scheduled near ones.
// Each firing schedules one child on average, so chains run long enough
// that the simulated clock wraps the wheel's ring many times.
func TestOrderMatchesReferenceAcrossBuckets(t *testing.T) {
	for seed := uint64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x3ee1))
		draw := func(p *program) child {
			return spanChild(byte(rng.IntN(8)), uint16(rng.Uint32()), p.add())
		}
		var p program
		for n := 1 + rng.IntN(40); len(p.initial) < n; {
			p.initial = append(p.initial, draw(&p))
		}
		for id := 0; id < len(p.children) && len(p.children) < 2500; id++ {
			for k := []int{0, 1, 1, 2}[rng.IntN(4)]; k > 0; k-- {
				p.children[id] = append(p.children[id], draw(&p))
			}
		}
		got, want := p.run(), p.reference()
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: firing order diverges from the reference\n got %v\nwant %v", seed, got, want)
		}
		if end := got[len(got)-1].at; end < 8*wheelSpan {
			t.Fatalf("seed %d: run ends at %d ps, before the ring wrapped 8 times", seed, end)
		}
	}
}

// TestResetStartsOver: a loop reset in the middle of a run, with events
// still queued on the wheel and in the far heap, is empty at time 0, and
// fires a new program across the wheel's geometry exactly as a new loop
// does.
func TestResetStartsOver(t *testing.T) {
	nop := func(Time, any) {}
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x2e5e))
		var l Loop
		for i := 0; i < 300; i++ {
			l.AtArg(Time(rng.IntN(int(20*wheelSpan))), nop, nil)
		}
		for i := rng.IntN(200); i > 0; i-- {
			l.Step()
		}
		if l.Empty() {
			t.Fatalf("seed %d: the abandoned run left nothing queued", seed)
		}
		l.Reset()
		if !l.Empty() || l.Now() != 0 {
			t.Fatalf("seed %d: after Reset Empty() = %v and Now() = %d, want true and 0", seed, l.Empty(), l.Now())
		}
		var p program
		for n := 1 + rng.IntN(40); len(p.initial) < n; {
			p.initial = append(p.initial, spanChild(byte(rng.IntN(8)), uint16(rng.Uint32()), p.add()))
		}
		for id := 0; id < len(p.children) && len(p.children) < 1000; id++ {
			for k := []int{0, 1, 1, 2}[rng.IntN(4)]; k > 0; k-- {
				p.children[id] = append(p.children[id], spanChild(byte(rng.IntN(8)), uint16(rng.Uint32()), p.add()))
			}
		}
		if got, want := p.runOn(&l), p.reference(); !slices.Equal(got, want) {
			t.Fatalf("seed %d: firing order after Reset diverges from the reference\n got %v\nwant %v", seed, got, want)
		}
	}
}

// FuzzLoopMatchesReference checks the queue's order against the
// reference on schedule programs decoded from the input, three bytes per
// event: a kind byte and a 16-bit magnitude for spanChild. The first
// byte sets how many events are scheduled at time 0; every later event
// is a child of the current parent, and a kind byte with its top bit set
// moves the parent on to the next event first.
func FuzzLoopMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		initial, data := 1+int(data[0]%16), data[1:]
		var p program
		parent := -1
		for ; len(data) >= 3 && len(p.children) < 2000; data = data[3:] {
			kind, mag := data[0], uint16(data[1])<<8|uint16(data[2])
			if len(p.initial) < initial {
				p.initial = append(p.initial, spanChild(kind, mag, p.add()))
				continue
			}
			if parent < 0 || kind&0x80 != 0 {
				parent++
			}
			if parent == len(p.children) {
				break
			}
			p.children[parent] = append(p.children[parent], spanChild(kind, mag, p.add()))
		}
		if got, want := p.run(), p.reference(); !slices.Equal(got, want) {
			t.Fatalf("firing order diverges from the reference\n got %v\nwant %v", got, want)
		}
	})
}

// TestScheduleAllocFree pins the queue's steady state at zero
// allocations: once the slot slab, the bucket links, the far heap and
// the free list have grown to the run's peak depth, scheduling and
// stepping reuse them. The delays cycle within a bucket, across
// buckets, over the horizon's edge and far beyond it.
func TestScheduleAllocFree(t *testing.T) {
	var l Loop
	subject := &struct{ n int }{}
	tick := func(_ Time, arg any) { arg.(*struct{ n int }).n++ }
	delays := [...]Time{300, 5 * Nanosecond, 25 * Nanosecond, 80 * Nanosecond, wheelSpan - 1, wheelSpan, wheelSpan + 1, 4 * wheelSpan}
	for i := 0; i < 64; i++ {
		l.AtArg(Time(i)*3*wheelBucket, tick, subject)
	}
	i := 0
	step := func() {
		l.AfterArg(delays[i%len(delays)], tick, subject)
		l.Step()
		i++
	}
	for range 10 * len(delays) * 64 {
		step()
	}
	allocs := testing.AllocsPerRun(1000, step)
	if allocs != 0 {
		t.Errorf("AtArg+Step allocates %.2f times per event, want 0", allocs)
	}
}
