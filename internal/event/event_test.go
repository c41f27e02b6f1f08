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
		// children[id] lists the (delay, child) pairs event id schedules
		// when it fires; delays may be negative (clamped) or zero.
		type child struct {
			delay Time
			id    int
		}
		var children [][]child
		var initial []child
		nextID := func() int { children = append(children, nil); return len(children) - 1 }
		for n := rng.IntN(200); len(initial) < n; {
			initial = append(initial, child{Time(rng.IntN(60) - 10), nextID()})
		}
		for id := 0; id < len(children) && len(children) < 1500; id++ {
			for k := rng.IntN(4); k > 0; k-- {
				children[id] = append(children[id], child{Time(rng.IntN(30) - 8), nextID()})
			}
		}

		var l Loop
		var got []firing
		var fire ArgHandler
		fire = func(now Time, arg any) {
			id := arg.(int)
			got = append(got, firing{id, now})
			for _, c := range children[id] {
				l.AfterArg(c.delay, fire, c.id)
			}
		}
		for _, c := range initial {
			l.AtArg(c.delay, fire, c.id)
		}
		l.Run()

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
		for _, c := range initial {
			schedule(c.delay, c.id)
		}
		for len(q) > 0 {
			m := 0
			for i, p := range q {
				if p.at < q[m].at || p.at == q[m].at && p.seq < q[m].seq {
					m = i
				}
			}
			p := q[m]
			q = slices.Delete(q, m, m+1)
			now = p.at
			want = append(want, firing{p.id, now})
			for _, c := range children[p.id] {
				schedule(now+c.delay, c.id)
			}
		}

		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: firing order diverges from the reference\n got %v\nwant %v", seed, got, want)
		}
	}
}

// TestScheduleAllocFree pins the queue's steady state at zero
// allocations: once the heap, slot slab and free list have grown to the
// run's peak depth, scheduling and stepping reuse them.
func TestScheduleAllocFree(t *testing.T) {
	var l Loop
	subject := &struct{ n int }{}
	tick := func(_ Time, arg any) { arg.(*struct{ n int }).n++ }
	for i := 0; i < 64; i++ {
		l.AtArg(Time(i), tick, subject)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		l.AtArg(l.Now()+64, tick, subject)
		l.Step()
	})
	if allocs != 0 {
		t.Errorf("AtArg+Step allocates %.2f times per event, want 0", allocs)
	}
}
