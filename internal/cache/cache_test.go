package cache

import (
	"reflect"
	"testing"
	"testing/quick"

	"destset/internal/trace"
)

// tiny returns a 4-set, 2-way cache for deterministic eviction tests.
func tiny() *Cache {
	return New(Config{SizeBytes: 8 * 64, Ways: 2, BlockBytes: 64})
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Invalid: "I", Shared: "S", Owned: "O", Modified: "M"} {
		if s.String() != want {
			t.Errorf("%v.String() = %q, want %q", uint8(s), s.String(), want)
		}
	}
	if !Owned.IsOwner() || !Modified.IsOwner() || Shared.IsOwner() || Invalid.IsOwner() {
		t.Error("IsOwner wrong")
	}
}

func TestConfigSets(t *testing.T) {
	if got := L2Default.Sets(); got != 16384 {
		t.Errorf("L2Default.Sets() = %d, want 16384 (4MB/4-way/64B)", got)
	}
	if got := (Config{SizeBytes: 8 * 64, Ways: 2, BlockBytes: 64}).Sets(); got != 4 {
		t.Errorf("tiny Sets() = %d, want 4", got)
	}
}

func TestNewPanicsOnNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two set count should panic")
		}
	}()
	New(Config{SizeBytes: 3 * 64, Ways: 1, BlockBytes: 64})
}

func TestInsertLookup(t *testing.T) {
	c := tiny()
	c.Insert(5, Shared)
	if got := c.Lookup(5); got != Shared {
		t.Errorf("Lookup(5) = %v, want S", got)
	}
	if got := c.Lookup(9); got != Invalid {
		t.Errorf("Lookup(9) = %v, want I", got)
	}
}

func TestInsertUpdatesInPlace(t *testing.T) {
	c := tiny()
	c.Insert(5, Shared)
	ev, evicted := c.Insert(5, Modified)
	if evicted {
		t.Errorf("re-insert should not evict, got %+v", ev)
	}
	if got := c.Lookup(5); got != Modified {
		t.Errorf("Lookup(5) = %v, want M", got)
	}
	if c.Resident() != 1 {
		t.Errorf("Resident = %d, want 1", c.Resident())
	}
}

func TestLRUEviction(t *testing.T) {
	c := tiny()
	// Addresses 0, 4, 8 all map to set 0 (4 sets).
	c.Insert(0, Shared)
	c.Insert(4, Modified)
	c.Touch(0) // 0 is now more recent than 4
	ev, evicted := c.Insert(8, Shared)
	if !evicted {
		t.Fatal("full set should evict")
	}
	if ev.Addr != 4 || ev.State != Modified {
		t.Errorf("evicted %+v, want {4 M}", ev)
	}
	if c.Lookup(0) != Shared || c.Lookup(8) != Shared || c.Lookup(4) != Invalid {
		t.Error("post-eviction residency wrong")
	}
}

func TestInsertPrefersInvalidWay(t *testing.T) {
	c := tiny()
	c.Insert(0, Shared)
	ev, evicted := c.Insert(4, Shared)
	if evicted {
		t.Errorf("insert into half-empty set evicted %+v", ev)
	}
}

func TestInvalidateFreesWay(t *testing.T) {
	c := tiny()
	c.Insert(0, Shared)
	c.Insert(4, Shared)
	if !c.Invalidate(0) {
		t.Fatal("Invalidate(0) should report presence")
	}
	if c.Invalidate(0) {
		t.Fatal("second Invalidate(0) should report absence")
	}
	_, evicted := c.Insert(8, Shared)
	if evicted {
		t.Error("insert after invalidate should reuse the freed way")
	}
}

func TestSetState(t *testing.T) {
	c := tiny()
	c.Insert(3, Shared)
	c.SetState(3, Owned)
	if c.Lookup(3) != Owned {
		t.Error("SetState(O) not applied")
	}
	c.SetState(3, Invalid)
	if c.Lookup(3) != Invalid {
		t.Error("SetState(I) should invalidate")
	}
}

func TestSetStatePanicsOnAbsent(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SetState on absent block should panic")
		}
	}()
	tiny().SetState(77, Shared)
}

func TestTouchStats(t *testing.T) {
	c := tiny()
	c.Insert(1, Shared)
	if !c.Touch(1) {
		t.Error("Touch(resident) should hit")
	}
	if c.Touch(2) {
		t.Error("Touch(absent) should miss")
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("Stats = %d,%d want 1,1", hits, misses)
	}
}

func TestDifferentSetsDoNotConflict(t *testing.T) {
	c := tiny()
	// 0..7 fill both ways of each of the 4 sets: a set never displaces
	// another set's blocks, so no insert evicts.
	for a := trace.Addr(0); a < 8; a++ {
		if _, ev := c.Insert(a, Shared); ev {
			t.Errorf("insert %d evicted in empty cache", a)
		}
	}
	if c.Resident() != 8 {
		t.Errorf("Resident = %d, want 8", c.Resident())
	}
}

// Property: resident count never exceeds capacity, and every insert leaves
// the inserted block resident.
func TestQuickCapacityInvariant(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := tiny()
		for _, a := range addrs {
			addr := trace.Addr(a % 64)
			c.Insert(addr, Shared)
			if c.Lookup(addr) == Invalid {
				return false
			}
			if c.Resident() > 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: an eviction never reports an Invalid state and never reports
// the just-inserted address.
func TestQuickEvictionSanity(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := tiny()
		for _, a := range addrs {
			addr := trace.Addr(a % 64)
			ev, ok := c.Insert(addr, Modified)
			if ok && (ev.State == Invalid || ev.Addr == addr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// outcome is everything one cache operation reports.
type outcome struct {
	ev    Eviction
	ok    bool
	state State
}

// step decodes op into an Insert, Touch, Invalidate, SetState or Lookup
// of one of blocks addresses and runs it on c.
func step(c *Cache, op uint16, blocks int) outcome {
	a := trace.Addr(int(op) % blocks)
	st := State(1 + int(op)/blocks%4)
	switch int(op) / (4 * blocks) % 5 {
	case 0:
		ev, ok := c.Insert(a, st)
		return outcome{ev: ev, ok: ok}
	case 1:
		return outcome{ok: c.Touch(a)}
	case 2:
		return outcome{ok: c.Invalidate(a)}
	case 3:
		if c.Lookup(a) != Invalid {
			c.SetState(a, st)
		}
	}
	return outcome{state: c.Lookup(a)}
}

// Property: on an evicting cache, a Reset cache behaves like a new one
// and a cache restored from a snapshot behaves like the snapshotted one
// — the same outcome for every later operation, the same evictions,
// statistics and occupancy — whatever either held before.
func TestResetAndRestoreAreExact(t *testing.T) {
	for _, cfg := range []Config{
		{SizeBytes: 8 * 64, Ways: 2, BlockBytes: 64},   // 4 sets
		{SizeBytes: 512 * 64, Ways: 4, BlockBytes: 64}, // 128 sets: two bitmap words
	} {
		blocks := 4 * cfg.SizeBytes / cfg.BlockBytes
		f := func(before, after []uint16) bool {
			x, y, r := New(cfg), New(cfg), New(cfg)
			for _, op := range before {
				step(x, op, blocks)
				step(r, op, blocks)
			}
			for _, op := range after {
				step(y, op, blocks)
			}
			snap := x.Snapshot()
			y.Restore(snap)
			if !reflect.DeepEqual(y.Snapshot(), snap) {
				return false
			}
			r.Reset()
			fresh := New(cfg)
			for _, op := range after {
				if step(x, op, blocks) != step(y, op, blocks) || step(r, op, blocks) != step(fresh, op, blocks) {
					return false
				}
			}
			xh, xm := x.Stats()
			yh, ym := y.Stats()
			rh, rm := r.Stats()
			fh, fm := fresh.Stats()
			if xh != yh || xm != ym || rh != fh || rm != fm ||
				x.Resident() != y.Resident() || r.Resident() != fresh.Resident() {
				return false
			}
			// A restored cache that ran on resets like any other.
			y.Reset()
			fresh = New(cfg)
			for _, op := range before {
				if step(y, op, blocks) != step(fresh, op, blocks) {
					return false
				}
			}
			return y.Resident() == fresh.Resident()
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%d sets: %v", cfg.Sets(), err)
		}
	}
}

// Operations on filled pages allocate nothing, and neither does a read
// of a page never filled, which sees Invalid.
func TestFilledPagesAllocFree(t *testing.T) {
	c := New(L2Default)
	c.Insert(5, Shared)
	far := trace.Addr(L2Default.Sets() / 2)
	if n := testing.AllocsPerRun(100, func() {
		c.Lookup(5)
		c.Touch(5)
		c.Insert(5, Modified)
		c.Insert(6, Shared)
		c.Insert(6+trace.Addr(L2Default.Sets()), Owned)
		c.Invalidate(6)
		if c.Lookup(far) != Invalid || c.Touch(far) {
			t.Fatal("a page never filled holds a block")
		}
		c.Invalidate(far)
	}); n != 0 {
		t.Errorf("operations on filled pages allocate %v times", n)
	}
	if len(c.filled) != 1 {
		t.Errorf("%d pages filled, want 1: reads filled a page", len(c.filled))
	}
}

func TestRestorePanicsOnOtherGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("restoring a snapshot of another geometry should panic")
		}
	}()
	tiny().Restore(New(L2Default).Snapshot())
}
