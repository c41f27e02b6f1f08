package cache

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"destset/internal/trace"
)

// refCache is the cache's former layout, kept as the reference the
// paged move-to-front Cache must match: one dense array of every way of
// every set, each line with an LRU stamp from a per-cache clock, a used
// bit per set for Reset and Snapshot, and an Insert that takes the first
// invalid way or else evicts the valid line with the oldest stamp.
type refCache struct {
	cfg          Config
	lines        []refLine
	used         []uint64
	mask         uint64
	clock        uint64
	misses, hits uint64
}

type refLine struct {
	addr  trace.Addr
	state State
	lru   uint64
}

func newRefCache(cfg Config) *refCache {
	n := cfg.Sets()
	return &refCache{
		cfg:   cfg,
		lines: make([]refLine, n*cfg.Ways),
		used:  make([]uint64, (n+63)/64),
		mask:  uint64(n - 1),
	}
}

func (c *refCache) set(a trace.Addr) []refLine {
	w := c.cfg.Ways
	i := int(uint64(a)&c.mask) * w
	return c.lines[i : i+w]
}

func (c *refCache) Lookup(a trace.Addr) State {
	set := c.set(a)
	for i := range set {
		if l := &set[i]; l.state != Invalid && l.addr == a {
			return l.state
		}
	}
	return Invalid
}

func (c *refCache) Touch(a trace.Addr) bool {
	c.clock++
	set := c.set(a)
	for i := range set {
		if l := &set[i]; l.state != Invalid && l.addr == a {
			l.lru = c.clock
			c.hits++
			return true
		}
	}
	c.misses++
	return false
}

func (c *refCache) SetState(a trace.Addr, s State) {
	set := c.set(a)
	for i := range set {
		if l := &set[i]; l.state != Invalid && l.addr == a {
			l.state = s
			return
		}
	}
	panic(fmt.Sprintf("refCache: SetState(%#x) on non-resident block", uint64(a)))
}

func (c *refCache) Invalidate(a trace.Addr) bool {
	set := c.set(a)
	for i := range set {
		if l := &set[i]; l.state != Invalid && l.addr == a {
			l.state = Invalid
			return true
		}
	}
	return false
}

func (c *refCache) Insert(a trace.Addr, s State) (ev Eviction, ok bool) {
	c.clock++
	si := uint64(a) & c.mask
	c.used[si/64] |= 1 << (si % 64)
	set := c.set(a)
	var victim *refLine
	for i := range set {
		l := &set[i]
		if l.state != Invalid && l.addr == a {
			l.state = s
			l.lru = c.clock
			return Eviction{}, false
		}
		if l.state == Invalid {
			if victim == nil || victim.state != Invalid {
				victim = l
			}
		} else if victim == nil || (victim.state != Invalid && l.lru < victim.lru) {
			victim = l
		}
	}
	if victim.state != Invalid {
		ev, ok = Eviction{Addr: victim.addr, State: victim.state}, true
	}
	*victim = refLine{addr: a, state: s, lru: c.clock}
	return ev, ok
}

func (c *refCache) Stats() (hits, misses uint64) { return c.hits, c.misses }

func (c *refCache) Resident() int {
	n := 0
	for _, l := range c.lines {
		if l.state != Invalid {
			n++
		}
	}
	return n
}

// usedSets calls fn with the index of every set filled since the last
// Reset.
func (c *refCache) usedSets(fn func(si int)) {
	for wi, word := range c.used {
		for ; word != 0; word &= word - 1 {
			fn(wi*64 + bits.TrailingZeros64(word))
		}
	}
}

func (c *refCache) Reset() {
	w := c.cfg.Ways
	c.usedSets(func(si int) { clear(c.lines[si*w : (si+1)*w]) })
	clear(c.used)
	c.clock, c.hits, c.misses = 0, 0, 0
}

// refSnapshot holds a refCache's valid lines, each with its way slot
// and LRU stamp, its clock and its statistics.
type refSnapshot struct {
	lines        []slotLine
	clock        uint64
	hits, misses uint64
}

type slotLine struct {
	addr  trace.Addr
	lru   uint64
	slot  uint32
	state State
}

func (c *refCache) Snapshot() *refSnapshot {
	snap := &refSnapshot{clock: c.clock, hits: c.hits, misses: c.misses}
	w := c.cfg.Ways
	c.usedSets(func(si int) {
		for i := si * w; i < (si+1)*w; i++ {
			if l := c.lines[i]; l.state != Invalid {
				snap.lines = append(snap.lines, slotLine{addr: l.addr, lru: l.lru, slot: uint32(i), state: l.state})
			}
		}
	})
	return snap
}

func (c *refCache) Restore(snap *refSnapshot) {
	c.Reset()
	w := uint32(c.cfg.Ways)
	for _, l := range snap.lines {
		c.lines[l.slot] = refLine{addr: l.addr, state: l.state, lru: l.lru}
		si := l.slot / w
		c.used[si/64] |= 1 << (si % 64)
	}
	c.clock, c.hits, c.misses = snap.clock, snap.hits, snap.misses
}

// recency returns each filled set's valid lines, least recent first,
// keyed by set index.
func (c *refCache) recency() map[uint64][]line {
	out := map[uint64][]line{}
	w := c.cfg.Ways
	c.usedSets(func(si int) {
		set := slices.Clone(c.lines[si*w : (si+1)*w])
		slices.SortFunc(set, func(x, y refLine) int { return cmp.Compare(x.lru, y.lru) })
		for _, l := range set {
			if l.state != Invalid {
				out[uint64(si)] = append(out[uint64(si)], line{addr: l.addr, state: l.state})
			}
		}
	})
	return out
}

// recency returns the same view of a Cache, read from its snapshot.
func (c *Cache) recency() map[uint64][]line {
	out := map[uint64][]line{}
	for _, l := range c.Snapshot().lines {
		si := uint64(l.addr) & c.mask
		out[si] = append(out[si], l)
	}
	return out
}

// cacheOp is one step of a cache comparison, on one of two caches of
// the same geometry: an operation on addr, a Reset, or a Snapshot of
// the cache restored into the other one.
type cacheOp struct {
	kind  opKind
	which int
	addr  trace.Addr
	state State
}

type opKind uint8

const (
	opLookup opKind = iota
	opTouch
	opInsert
	opSetState
	opInvalidate
	opReset
	opRestore
	numOps
)

// panics reports whether fn panicked.
func panics(fn func()) (yes bool) {
	defer func() { yes = recover() != nil }()
	fn()
	return false
}

// compareCaches drives two Caches and two refCaches of geometry cfg
// through ops in lock-step. It compares the result of every operation
// (a SetState on an absent block must panic in both) and, after every
// step, both pairs' Stats and Resident counts; after every Restore and
// at the end it compares the recency order of every set.
func compareCaches(cfg Config, ops []cacheOp) error {
	got := [2]*Cache{New(cfg), New(cfg)}
	ref := [2]*refCache{newRefCache(cfg), newRefCache(cfg)}
	sameOrder := func(step int, op cacheOp) error {
		for i := range got {
			if g, w := got[i].recency(), ref[i].recency(); !reflect.DeepEqual(g, w) {
				return fmt.Errorf("step %d %+v: cache %d holds %v, reference %v", step, op, i, g, w)
			}
		}
		return nil
	}
	for step, op := range ops {
		g, r := got[op.which], ref[op.which]
		var gv, rv any
		switch op.kind {
		case opLookup:
			gv, rv = g.Lookup(op.addr), r.Lookup(op.addr)
		case opTouch:
			gv, rv = g.Touch(op.addr), r.Touch(op.addr)
		case opInsert:
			ge, gok := g.Insert(op.addr, op.state)
			re, rok := r.Insert(op.addr, op.state)
			gv, rv = fmt.Sprint(ge, gok), fmt.Sprint(re, rok)
		case opSetState:
			gv = panics(func() { g.SetState(op.addr, op.state) })
			rv = panics(func() { r.SetState(op.addr, op.state) })
		case opInvalidate:
			gv, rv = g.Invalidate(op.addr), r.Invalidate(op.addr)
		case opReset:
			g.Reset()
			r.Reset()
		case opRestore:
			snap := g.Snapshot()
			got[1-op.which].Restore(snap)
			ref[1-op.which].Restore(r.Snapshot())
			if again := got[1-op.which].Snapshot(); !reflect.DeepEqual(again, snap) {
				return fmt.Errorf("step %d %+v: restored snapshot %+v, want %+v", step, op, again, snap)
			}
			if err := sameOrder(step, op); err != nil {
				return err
			}
		}
		if gv != rv {
			return fmt.Errorf("step %d %+v: got %v, reference %v", step, op, gv, rv)
		}
		for i := range got {
			gh, gm := got[i].Stats()
			rh, rm := ref[i].Stats()
			if gh != rh || gm != rm || got[i].Resident() != ref[i].Resident() {
				return fmt.Errorf("step %d %+v: cache %d Stats %d/%d Resident %d, reference %d/%d %d",
					step, op, i, gh, gm, got[i].Resident(), rh, rm, ref[i].Resident())
			}
		}
	}
	return sameOrder(len(ops), cacheOp{})
}

// refGeometries run from one set of one way to several chunks of pages,
// with set counts below one page and below one chunk.
var refGeometries = []struct{ sets, ways int }{
	{1, 1}, {1, 4}, {2, 2}, {8, 3}, {16, 16}, {64, 4}, {64, 16}, {512, 2}, {1024, 1},
}

func geometry(sets, ways int) Config {
	return Config{SizeBytes: sets * ways * 64, Ways: ways, BlockBytes: 64}
}

// TestCacheMatchesReference: on random op sequences the paged
// move-to-front cache behaves exactly like the dense stamp-LRU
// reference. Each set sees twice as many blocks as it has ways, some
// differing only above bit 40, so sequences mix hits, fills, evictions
// and invalidations.
func TestCacheMatchesReference(t *testing.T) {
	for _, g := range refGeometries {
		cfg := geometry(g.sets, g.ways)
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ops := make([]cacheOp, 4*g.sets*g.ways+200)
			for i := range ops {
				tag := trace.Addr(rng.Intn(2*g.ways)) | trace.Addr(rng.Intn(2))<<40
				ops[i] = cacheOp{
					kind:  opKind(rng.Intn(int(numOps))),
					which: rng.Intn(2),
					addr:  tag*trace.Addr(g.sets) + trace.Addr(rng.Intn(g.sets)),
					state: State(1 + rng.Intn(4)),
				}
				if ops[i].kind >= opReset && rng.Intn(8) > 0 {
					ops[i].kind = opInsert
				} else if ops[i].kind == opSetState && rng.Intn(5) == 0 {
					ops[i].state = Invalid
				}
			}
			if err := compareCaches(cfg, ops); err != nil {
				t.Fatalf("%d sets x %d ways, seed %d: %v", g.sets, g.ways, seed, err)
			}
		}
	}
}

// FuzzCacheMatchesReference runs compareCaches on a geometry and an op
// sequence decoded from the input: byte 0 picks the ways (1..16), byte 1
// the set count (1..1024), and every further three bytes one op: the
// first byte its kind, cache and state (Invalid only for SetState), the
// second the low byte of the set index, the third two more set-index
// bits, a tag below twice the ways and bit 40.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		ways, sets := 1+int(data[0]%16), 1<<(data[1]%11)
		var ops []cacheOp
		for b := data[2:]; len(b) >= 3; b = b[3:] {
			op := cacheOp{
				kind:  opKind(b[0] % 8 % uint8(numOps)),
				which: int(b[0] >> 3 & 1),
				state: State(b[0] >> 4 % 5),
			}
			if op.state == Invalid && op.kind != opSetState {
				op.state = Modified
			}
			set := (int(b[1]) | int(b[2]&3)<<8) % sets
			tag := int(b[2]>>2&31) % (2 * ways)
			op.addr = trace.Addr(tag*sets+set) | trace.Addr(b[2]>>7)<<40
			ops = append(ops, op)
		}
		if err := compareCaches(geometry(sets, ways), ops); err != nil {
			t.Fatalf("%d sets x %d ways: %v", sets, ways, err)
		}
	})
}
