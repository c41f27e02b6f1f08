// Package cache models a set-associative cache with MOSI coherence states
// and LRU replacement.
//
// It serves as the per-node L2 cache of the simulated 16-processor system
// (the paper's target: 4 MB, 4-way, 64-byte blocks). The coherence oracle
// keeps one Cache per node; evictions reported by Insert drive the
// protocol-visible downgrades (writebacks of owned blocks, silent drops of
// shared blocks).
//
// A set keeps its valid lines first, most recently used first: a Touch,
// or an Insert of a resident block, moves its line to the front; an
// Insert of a new block shifts the set down one line and takes the
// front, so a full set evicts its last line; Invalidate closes the gap a
// line leaves. That is exactly LRU replacement, with no clock and no
// stamps.
//
// A cache holds the sets a run fills, not its capacity. Sets are
// allocated in pages of 16 on the first Insert into a page; a page table
// of 4-byte entries finds each page's storage, which is handed out in
// chunks of 16 pages so that growth never copies a line. A lookup on a
// page never filled reads Invalid without allocating, and Reset,
// Snapshot and Restore cost the pages filled: a timing sweep reuses one
// oracle per worker and restores each cell's warmed-up contents into it.
package cache

import (
	"fmt"

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

// line is one cache way; the zero line is Invalid.
type line struct {
	addr  trace.Addr
	state State
}

// A page holds pageSets consecutive sets; a cache of fewer sets has one
// page, whose sets past its last are never used. A chunk holds
// chunkPages pages, or all the pages of a smaller cache.
const (
	pageSets   = 16
	chunkPages = 16
)

// Cache is a set-associative MOSI cache. The zero value is unusable; use
// New.
type Cache struct {
	cfg  Config
	mask uint64
	// table has one entry per page of sets: 0 while the page is not
	// filled, else 1 + the page's index in the storage. Storage page p
	// is page p%chunkPages of chunks[p/chunkPages], and set s of a page
	// starts at line s*ways of the page.
	table  []uint32
	chunks [][]line
	// filled lists the table index of each page in use, in storage
	// order. Storage pages past len(filled) are all Invalid.
	filled       []uint32
	misses, hits uint64
}

// New returns an empty cache with the given geometry. The set count must be
// a power of two (true for all realistic configurations; New panics
// otherwise to catch sizing bugs early). It allocates only the page
// table: 4 bytes per page of sets.
func New(cfg Config) *Cache {
	n := cfg.Sets()
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d is not a power of two", n))
	}
	return &Cache{
		cfg:   cfg,
		mask:  uint64(n - 1),
		table: make([]uint32, (n+pageSets-1)/pageSets),
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// set returns the ways of a's set, or nil if its page is not filled.
func (c *Cache) set(a trace.Addr) []line {
	s := uint64(a) & c.mask
	p := c.table[s/pageSets]
	if p == 0 {
		return nil
	}
	return c.setIn(p-1, s)
}

// setIn returns the ways of set s, which lies on storage page p.
func (c *Cache) setIn(p uint32, s uint64) []line {
	i := int(uint64(p%chunkPages)*pageSets+s%pageSets) * c.cfg.Ways
	return c.chunks[p/chunkPages][i : i+c.cfg.Ways]
}

// find returns a's set (nil if its page is not filled) and the index of
// a's line in it, or -1 if a is not resident.
func (c *Cache) find(a trace.Addr) ([]line, int) {
	set := c.set(a)
	for i := range set {
		if set[i].state == Invalid {
			break
		}
		if set[i].addr == a {
			return set, i
		}
	}
	return set, -1
}

// toFront moves line i of set to the front, shifting the lines before
// it down one.
func toFront(set []line, i int) {
	l := set[i]
	copy(set[1:i+1], set[:i])
	set[0] = l
}

// remove deletes line i of set, shifting the lines after it up one.
func remove(set []line, i int) {
	copy(set[i:], set[i+1:])
	set[len(set)-1] = line{}
}

// Lookup returns the block's state without touching LRU. Invalid means not
// present.
func (c *Cache) Lookup(a trace.Addr) State {
	for _, l := range c.set(a) {
		if l.state == Invalid || l.addr == a {
			return l.state
		}
	}
	return Invalid
}

// Touch updates LRU for a resident block and reports whether it was
// present (counting a hit or miss).
func (c *Cache) Touch(a trace.Addr) bool {
	set, i := c.find(a)
	if i < 0 {
		c.misses++
		return false
	}
	toFront(set, i)
	c.hits++
	return true
}

// SetState changes the state of a resident block without touching LRU;
// Invalid removes it. It panics if the block is not resident — state
// changes on absent blocks indicate a protocol bug.
func (c *Cache) SetState(a trace.Addr, s State) {
	set, i := c.find(a)
	switch {
	case i < 0:
		panic(fmt.Sprintf("cache: SetState(%#x) on non-resident block", uint64(a)))
	case s == Invalid:
		remove(set, i)
	default:
		set[i].state = s
	}
}

// Invalidate removes a block if present and reports whether it was present.
func (c *Cache) Invalidate(a trace.Addr) bool {
	set, i := c.find(a)
	if i < 0 {
		return false
	}
	remove(set, i)
	return true
}

// Insert places a block in state s, updating LRU. If the block is already
// resident its state is updated in place. If the set is full the LRU line
// is evicted and returned; ok reports whether an eviction happened. It
// panics if s is Invalid: a block leaves a cache by Invalidate.
func (c *Cache) Insert(a trace.Addr, s State) (ev Eviction, ok bool) {
	if s == Invalid {
		panic(fmt.Sprintf("cache: Insert(%#x) in state I", uint64(a)))
	}
	set, i := c.find(a)
	if i >= 0 {
		set[i].state = s
		toFront(set, i)
		return Eviction{}, false
	}
	if set == nil {
		set = c.fill(a)
	}
	if last := set[len(set)-1]; last.state != Invalid {
		ev, ok = Eviction{Addr: last.addr, State: last.state}, true
	}
	copy(set[1:], set)
	set[0] = line{addr: a, state: s}
	return ev, ok
}

// fill gives a's page the next storage page, adding a chunk when every
// page of the chunks held so far is in use, and returns a's set.
func (c *Cache) fill(a trace.Addr) []line {
	s := uint64(a) & c.mask
	p := uint32(len(c.filled))
	if int(p/chunkPages) == len(c.chunks) {
		c.chunks = append(c.chunks, make([]line, min(len(c.table), chunkPages)*pageSets*c.cfg.Ways))
	}
	c.table[s/pageSets] = p + 1
	c.filled = append(c.filled, uint32(s/pageSets))
	return c.setIn(p, s)
}

// used calls fn with the lines of the pages in use, a chunk at a time.
func (c *Cache) used(fn func([]line)) {
	n := len(c.filled) * pageSets * c.cfg.Ways
	for _, ch := range c.chunks {
		if n <= 0 {
			return
		}
		fn(ch[:min(n, len(ch))])
		n -= len(ch)
	}
}

// Stats returns cumulative hit and miss counts observed by Touch.
func (c *Cache) Stats() (hits, misses uint64) { return c.hits, c.misses }

// Resident returns the number of valid lines (for tests and occupancy
// reporting).
func (c *Cache) Resident() int {
	n := 0
	c.used(func(lines []line) {
		for _, l := range lines {
			if l.state != Invalid {
				n++
			}
		}
	})
	return n
}

// Reset empties the cache and zeroes its statistics, leaving it as New
// left it. It clears only the pages filled since New or the last Reset,
// and keeps their storage for the next run.
func (c *Cache) Reset() {
	c.used(func(lines []line) { clear(lines) })
	for _, pi := range c.filled {
		c.table[pi] = 0
	}
	c.filled = c.filled[:0]
	c.hits, c.misses = 0, 0
}

// Snapshot is a compact copy of a cache: its valid lines and the Touch
// statistics.
type Snapshot struct {
	cfg          Config
	lines        []line
	hits, misses uint64
}

// Snapshot copies the cache's valid lines, visiting only the pages filled
// since New or the last Reset. Each set's lines are listed least recent
// first, so inserting them in order rebuilds the set.
func (c *Cache) Snapshot() *Snapshot {
	snap := &Snapshot{cfg: c.cfg, hits: c.hits, misses: c.misses}
	c.used(func(lines []line) {
		for s := 0; s < len(lines); s += c.cfg.Ways {
			for i := s + c.cfg.Ways - 1; i >= s; i-- {
				if lines[i].state != Invalid {
					snap.lines = append(snap.lines, lines[i])
				}
			}
		}
	})
	return snap
}

// Restore makes the cache's contents and statistics those of the
// snapshot, which must come from a cache of the same geometry: from then
// on the cache behaves exactly as the snapshotted one did.
func (c *Cache) Restore(snap *Snapshot) {
	if snap.cfg != c.cfg {
		panic(fmt.Sprintf("cache: restoring a %+v snapshot into a %+v cache", snap.cfg, c.cfg))
	}
	c.Reset()
	for _, l := range snap.lines {
		c.Insert(l.addr, l.state)
	}
	c.hits, c.misses = snap.hits, snap.misses
}
