// Package cache models a set-associative cache with MOSI coherence states
// and LRU replacement.
//
// It serves as the per-node L2 cache of the simulated 16-processor system
// (the paper's target: 4 MB, 4-way, 64-byte blocks). The coherence oracle
// keeps one Cache per node; evictions reported by Insert drive the
// protocol-visible downgrades (writebacks of owned blocks, silent drops of
// shared blocks).
//
// A cache remembers which sets it has filled, so Reset, Snapshot and
// Restore cost what a run filled rather than the cache's capacity: a
// timing sweep reuses one oracle per worker and restores each cell's
// warmed-up contents into it instead of building a new 4 MB cache.
package cache

import (
	"fmt"
	"math/bits"

	"destset/internal/trace"
)

// State is a MOSI coherence state for a cached block. The protocol used in
// the paper is MOSI write-invalidate: Modified and Owned blocks must supply
// data (the node is the owner); Shared blocks may be dropped silently.
type State uint8

const (
	// Invalid means the block is not present.
	Invalid State = iota
	// Shared is a read-only copy; another node or memory owns the block.
	Shared
	// Exclusive is a clean read-only copy held by exactly one cache (the
	// E of MOESI); the holder owns the block and may silently upgrade to
	// Modified, but eviction needs no writeback.
	Exclusive
	// Owned is a writable-dirty copy that other nodes may also share; the
	// holder must respond to requests and write back on eviction.
	Owned
	// Modified is an exclusive dirty copy.
	Modified
)

// String returns the one-letter state mnemonic.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Owned:
		return "O"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// IsOwner reports whether a block in state s must respond with data.
func (s State) IsOwner() bool { return s == Exclusive || s == Owned || s == Modified }

// Dirty reports whether eviction of state s requires a writeback.
func (s State) Dirty() bool { return s == Owned || s == Modified }

// Config sizes a cache.
type Config struct {
	// SizeBytes is the total capacity, e.g. 4 MiB.
	SizeBytes int
	// Ways is the associativity.
	Ways int
	// BlockBytes is the line size (64 in all paper experiments).
	BlockBytes int
}

// L2Default is the paper's Table 4 L2 configuration: 4 MB, 4-way, 64 B.
var L2Default = Config{SizeBytes: 4 << 20, Ways: 4, BlockBytes: trace.BlockBytes}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int {
	s := c.SizeBytes / (c.Ways * c.BlockBytes)
	if s <= 0 {
		return 1
	}
	return s
}

// Eviction describes a block displaced by Insert.
type Eviction struct {
	Addr  trace.Addr
	State State
}

// line is one cache way. lru is a per-set timestamp: higher = more recent.
type line struct {
	addr  trace.Addr
	state State
	lru   uint64
}

// Cache is a set-associative MOSI cache. The zero value is unusable; use
// New.
type Cache struct {
	cfg Config
	// lines holds every way of every set in one pointer-free array: set i
	// is lines[i*Ways : (i+1)*Ways].
	lines []line
	// used has one bit per set, set by Insert: every valid line lies in a
	// used set, so Reset and Snapshot visit those sets alone.
	used   []uint64
	mask   uint64
	clock  uint64
	misses uint64
	hits   uint64
}

// New returns an empty cache with the given geometry. The set count must be
// a power of two (true for all realistic configurations; New panics
// otherwise to catch sizing bugs early).
func New(cfg Config) *Cache {
	n := cfg.Sets()
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d is not a power of two", n))
	}
	return &Cache{
		cfg:   cfg,
		lines: make([]line, n*cfg.Ways),
		used:  make([]uint64, (n+63)/64),
		mask:  uint64(n - 1),
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// set returns the ways of a's set.
func (c *Cache) set(a trace.Addr) []line {
	w := c.cfg.Ways
	i := int(uint64(a)&c.mask) * w
	return c.lines[i : i+w]
}

// Lookup returns the block's state without touching LRU. Invalid means not
// present.
func (c *Cache) Lookup(a trace.Addr) State {
	set := c.set(a)
	for i := range set {
		l := &set[i]
		if l.state != Invalid && l.addr == a {
			return l.state
		}
	}
	return Invalid
}

// Touch updates LRU for a resident block and reports whether it was
// present (counting a hit or miss).
func (c *Cache) Touch(a trace.Addr) bool {
	c.clock++
	set := c.set(a)
	for i := range set {
		l := &set[i]
		if l.state != Invalid && l.addr == a {
			l.lru = c.clock
			c.hits++
			return true
		}
	}
	c.misses++
	return false
}

// SetState changes the state of a resident block. It panics if the block
// is not resident — state changes on absent blocks indicate a protocol bug.
func (c *Cache) SetState(a trace.Addr, s State) {
	set := c.set(a)
	for i := range set {
		l := &set[i]
		if l.state != Invalid && l.addr == a {
			if s == Invalid {
				l.state = Invalid
				return
			}
			l.state = s
			return
		}
	}
	panic(fmt.Sprintf("cache: SetState(%#x) on non-resident block", uint64(a)))
}

// Invalidate removes a block if present and reports whether it was present.
func (c *Cache) Invalidate(a trace.Addr) bool {
	set := c.set(a)
	for i := range set {
		l := &set[i]
		if l.state != Invalid && l.addr == a {
			l.state = Invalid
			return true
		}
	}
	return false
}

// Insert places a block in state s, updating LRU. If the block is already
// resident its state is updated in place. If the set is full the LRU line
// is evicted and returned; ok reports whether an eviction happened.
func (c *Cache) Insert(a trace.Addr, s State) (ev Eviction, ok bool) {
	c.clock++
	si := uint64(a) & c.mask
	c.used[si/64] |= 1 << (si % 64)
	set := c.set(a)
	var victim *line
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
		ev = Eviction{Addr: victim.addr, State: victim.state}
		ok = true
	}
	victim.addr = a
	victim.state = s
	victim.lru = c.clock
	return ev, ok
}

// Stats returns cumulative hit and miss counts observed by Touch.
func (c *Cache) Stats() (hits, misses uint64) { return c.hits, c.misses }

// Resident returns the number of valid lines (for tests and occupancy
// reporting).
func (c *Cache) Resident() int {
	n := 0
	for _, l := range c.lines {
		if l.state != Invalid {
			n++
		}
	}
	return n
}

// Reset empties the cache and zeroes its clock and statistics, leaving
// it as New left it. It clears only the sets filled since New or the
// last Reset.
func (c *Cache) Reset() {
	w := c.cfg.Ways
	for wi, word := range c.used {
		for ; word != 0; word &= word - 1 {
			si := wi*64 + bits.TrailingZeros64(word)
			clear(c.lines[si*w : (si+1)*w])
		}
		c.used[wi] = 0
	}
	c.clock, c.hits, c.misses = 0, 0, 0
}

// Snapshot is a compact copy of a cache: its valid lines, each with its
// way slot and LRU stamp, plus the LRU clock and the Touch statistics.
// Invalid lines are left out; no lookup or victim choice reads their
// contents.
type Snapshot struct {
	cfg          Config
	lines        []slotLine
	clock        uint64
	hits, misses uint64
}

// slotLine is one valid line of a Snapshot and its index in lines.
type slotLine struct {
	addr  trace.Addr
	lru   uint64
	slot  uint32
	state State
}

// Snapshot copies the cache's valid lines, visiting only the sets filled
// since New or the last Reset.
func (c *Cache) Snapshot() *Snapshot {
	snap := &Snapshot{cfg: c.cfg, clock: c.clock, hits: c.hits, misses: c.misses}
	w := c.cfg.Ways
	for wi, word := range c.used {
		for ; word != 0; word &= word - 1 {
			si := wi*64 + bits.TrailingZeros64(word)
			for i := si * w; i < (si+1)*w; i++ {
				if l := c.lines[i]; l.state != Invalid {
					snap.lines = append(snap.lines, slotLine{addr: l.addr, lru: l.lru, slot: uint32(i), state: l.state})
				}
			}
		}
	}
	return snap
}

// Restore makes the cache's contents, clock and statistics those of the
// snapshot, which must come from a cache of the same geometry: from then
// on the cache behaves exactly as the snapshotted one did.
func (c *Cache) Restore(snap *Snapshot) {
	if snap.cfg != c.cfg {
		panic(fmt.Sprintf("cache: restoring a %+v snapshot into a %+v cache", snap.cfg, c.cfg))
	}
	c.Reset()
	w := uint32(c.cfg.Ways)
	for _, l := range snap.lines {
		c.lines[l.slot] = line{addr: l.addr, state: l.state, lru: l.lru}
		si := l.slot / w
		c.used[si/64] |= 1 << (si % 64)
	}
	c.clock, c.hits, c.misses = snap.clock, snap.hits, snap.misses
}
