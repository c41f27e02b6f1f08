// Package coherence implements the global MOSI coherence state of the
// simulated multiprocessor: which node (or memory) owns each block and
// which nodes share it.
//
// It is the substrate every protocol engine and the workload generators
// build on. Given a memory access it decides hit vs. L2 miss using real
// per-node set-associative caches (including the downgrades that evictions
// cause), and for every miss it reports the information that determines a
// request's destination-set requirements: the home node, the owner, the
// sharers and the requester's prior state.
//
// The same state evolution happens under broadcast snooping, directory and
// multicast snooping protocols — only message routing differs — so a single
// System annotates a trace once and all protocol/predictor evaluations
// reuse the annotation (the paper's trace-driven methodology, §4).
//
// A System can be reused and its state copied. Reset returns it to
// NewSystem's state at a cost that follows what its runs touched, not the
// size of its caches; Snapshot copies the valid cache lines and the
// non-zero block-table entries, and Restore installs such a copy. The
// timing simulator uses them to warm up each trace region once per sweep
// and to keep one System per worker. A caller done with a System it
// showed to nobody else hands it back with Recycle, and the next
// NewSystem of the same configuration resets and returns it instead of
// building a new one; the free list holds idle Systems only weakly.
package coherence

import (
	"fmt"
	"iter"
	"maps"
	"slices"

	"destset/internal/cache"
	"destset/internal/freelist"
	"destset/internal/nodeset"
	"destset/internal/trace"
)

// MemoryOwner is the sentinel "owner" value meaning memory at the home
// node owns the block (no cache has a dirty copy).
const MemoryOwner nodeset.NodeID = 0xFF

// AccessKind distinguishes processor loads from stores.
type AccessKind uint8

const (
	// Load is a read access; a miss issues GetShared.
	Load AccessKind = iota
	// Store is a write access; a miss or upgrade issues GetExclusive.
	Store
)

// Config describes the coherence system geometry.
type Config struct {
	// Nodes is the number of processor/memory nodes (16 in the paper).
	Nodes int
	// L2 is the per-node second-level cache geometry.
	L2 cache.Config
	// TrackBlockStats enables per-block touched-set and miss counting for
	// the §2 sharing characterization (Table 2, Figure 3). It costs a few
	// bytes per block.
	TrackBlockStats bool
	// Exclusive enables the E state (MOESI instead of MOSI): a load miss
	// to an unshared memory-owned block installs a clean-exclusive copy
	// whose holder owns the block but evicts silently. The paper's target
	// runs MOSI (§2.1); the predictors are specified for "MOESI
	// write-invalidate protocols" generally (§3), so both are supported.
	Exclusive bool
}

// DefaultConfig is the paper's target system: 16 nodes, 4 MB 4-way L2.
func DefaultConfig() Config {
	return Config{Nodes: 16, L2: cache.L2Default, TrackBlockStats: true}
}

// blockState is the directory's view of one 64-byte block. The zero value
// means: owned by memory, no sharers, never touched — so a page of the
// block table is allocated zeroed on first touch, and a block on a page
// never allocated reads as the zero value.
type blockState struct {
	sharers nodeset.Set    // nodes holding the block in Shared state
	touched nodeset.Set    // nodes that ever accessed the block (stats)
	misses  uint32         // misses to this block (stats)
	owner   nodeset.NodeID // cache owner, or 0 meaning memory (see ownerC)
	ownerC  bool           // true when a cache owns the block
}

func (b *blockState) ownerID() nodeset.NodeID {
	if !b.ownerC {
		return MemoryOwner
	}
	return b.owner
}

// MissInfo captures, for one miss, the pre-request coherence state that
// determines destination-set requirements and message accounting.
type MissInfo struct {
	// Home is the node whose memory controller is home for the block.
	Home nodeset.NodeID
	// Owner is the pre-request owner: a node ID, or MemoryOwner.
	Owner nodeset.NodeID
	// Sharers are the pre-request Shared-state holders. It may include the
	// requester itself (an upgrade miss).
	Sharers nodeset.Set
	// RequesterState is the requester's pre-request cache state: Invalid,
	// Shared, or (for an upgrade by the owner) Owned.
	RequesterState cache.State
}

// Columns is the column layout of a recorded, annotated miss stream: one
// slice per field of a trace.Record and its MissInfo, all indexed by
// miss, except the home node, which HomeOf derives from the address and
// Nodes. internal/dataset stores its datasets this way, and protocol
// engines account whole ranges of them (protocol.ProcessRange).
//
// A dataset loaded from disk may alias its columns into a file mapping
// the garbage collector does not see. Its views hand out a *Columns that
// pins the dataset, so a reader keeps that pointer reachable until it is
// done with the range.
type Columns struct {
	Nodes    int
	Addr     []trace.Addr
	PC       []trace.PC
	Sharers  []nodeset.Set
	Gap      []uint32
	Req      []uint8
	Kind     []trace.Kind
	Owner    []nodeset.NodeID
	ReqState []cache.State
}

// NewColumns allocates every column for exactly n misses of a
// nodes-node system.
func NewColumns(nodes, n int) Columns {
	return Columns{
		Nodes:    nodes,
		Addr:     make([]trace.Addr, n),
		PC:       make([]trace.PC, n),
		Sharers:  make([]nodeset.Set, n),
		Gap:      make([]uint32, n),
		Req:      make([]uint8, n),
		Kind:     make([]trace.Kind, n),
		Owner:    make([]nodeset.NodeID, n),
		ReqState: make([]cache.State, n),
	}
}

// Set records rec and its annotation mi as miss i. The home node is not
// recorded: At derives it from the address.
func (c *Columns) Set(i int, rec trace.Record, mi MissInfo) {
	c.Addr[i] = rec.Addr
	c.PC[i] = rec.PC
	c.Gap[i] = rec.Gap
	c.Req[i] = rec.Requester
	c.Kind[i] = rec.Kind
	c.Owner[i] = mi.Owner
	c.Sharers[i] = mi.Sharers
	c.ReqState[i] = mi.RequesterState
}

// At returns miss i as a record and its annotation.
func (c *Columns) At(i int) (trace.Record, MissInfo) {
	return trace.Record{
			Addr:      c.Addr[i],
			PC:        c.PC[i],
			Requester: c.Req[i],
			Kind:      c.Kind[i],
			Gap:       c.Gap[i],
		}, MissInfo{
			Home:           HomeOf(c.Addr[i], c.Nodes),
			Owner:          c.Owner[i],
			Sharers:        c.Sharers[i],
			RequesterState: c.ReqState[i],
		}
}

// OwnerIsMemory reports whether memory owned the block before the request.
func (mi MissInfo) OwnerIsMemory() bool { return mi.Owner == MemoryOwner }

// CacheToCache reports whether the miss is serviced by another processor's
// cache (a "dirty", "3-hop" or "sharing" miss).
func (mi MissInfo) CacheToCache(req nodeset.NodeID) bool {
	return !mi.OwnerIsMemory() && mi.Owner != req
}

// Needed returns the complete destination set the request must reach for a
// multicast snooping transaction to succeed: requester, home, the owner,
// and for GetExclusive all sharers.
func (mi MissInfo) Needed(req nodeset.NodeID, kind trace.Kind) nodeset.Set {
	s := nodeset.Pair(req, mi.Home)
	if !mi.OwnerIsMemory() {
		s = s.Add(mi.Owner)
	}
	if kind == trace.GetExclusive {
		s = s.Union(mi.Sharers)
	}
	return s
}

// MinimalSet returns the minimal destination set used by a directory
// protocol's initial request and by predictors as the floor of every
// prediction: requester plus home.
func MinimalSet(req, home nodeset.NodeID) nodeset.Set {
	return nodeset.Pair(req, home)
}

// DirIndirection reports whether a directory protocol would add an
// indirection (3-hop latency) to this miss: the data must be forwarded
// from a remote owner cache.
func (mi MissInfo) DirIndirection(req nodeset.NodeID) bool {
	return mi.CacheToCache(req)
}

// DirMustSee returns how many other processors must observe the request
// under a directory protocol (the Figure 2 metric): the remote owner, plus
// all remote sharers for write requests.
func (mi MissInfo) DirMustSee(req nodeset.NodeID, kind trace.Kind) int {
	n := 0
	if mi.CacheToCache(req) {
		n++
	}
	if kind == trace.GetExclusive {
		n += mi.Sharers.Remove(req).Remove(mi.Owner).Count()
	}
	return n
}

// Responder identifies who supplies the data: a remote cache owner, memory
// at the home node, or nobody (an upgrade by the current owner).
func (mi MissInfo) Responder(req nodeset.NodeID) (node nodeset.NodeID, fromMemory, none bool) {
	switch {
	case mi.OwnerIsMemory():
		return mi.Home, true, false
	case mi.Owner == req:
		return req, false, true
	default:
		return mi.Owner, false, false
	}
}

// The block table is a sparse two-level page table, so its memory follows
// the blocks a run touches rather than the highest address it touches: a
// page holds pageBlocks consecutive blocks (96 KB) and is allocated zeroed
// on first touch; a directory maps the dirPages pages of one 2^regionBits-
// block region. Pages never move once installed, so a *blockState stays
// valid until the next Reset, which takes every page out of its directory
// and keeps it for reuse.
const (
	pageBits   = 12
	dirBits    = 15
	regionBits = pageBits + dirBits
	pageBlocks = 1 << pageBits
	dirPages   = 1 << dirBits
)

type (
	page      [pageBlocks]blockState
	directory [dirPages]*page
)

// System is the global coherence oracle.
type System struct {
	cfg    Config
	caches []*cache.Cache
	// dirs holds the block table's directories keyed by region (block
	// address >> regionBits). dir is the last one used and dirKey its key,
	// starting at region 0, whose directory NewSystem creates; every
	// generated workload fits in region 0, so the hot path is two array
	// indexes.
	dirs   map[trace.Addr]*directory
	dir    *directory
	dirKey trace.Addr
	// installed lists the directory slot of every page installed since
	// NewSystem or the last Reset. Reset moves those pages to spare, and
	// block takes a spare page, cleared, before allocating a new one, so
	// a reused System clears only the pages its next run touches.
	installed []**page
	spare     []*page

	// OnWriteback, if set, is called whenever a node evicts an Owned or
	// Modified block (a writeback of the data to the home memory). The
	// timing simulator uses it to charge writeback traffic.
	OnWriteback func(from nodeset.NodeID, a trace.Addr)
	writebacks  uint64
}

// Writebacks returns how many dirty evictions (writebacks to memory)
// have occurred.
func (s *System) Writebacks() uint64 { return s.writebacks }

// NewSystem returns a system with empty caches and all blocks owned by
// memory. It may be one that Recycle handed back and no collection has
// freed since, reset: it behaves exactly as a new one.
func NewSystem(cfg Config) *System {
	if cfg.Nodes <= 0 || cfg.Nodes > nodeset.MaxNodes {
		panic(fmt.Sprintf("coherence: bad node count %d", cfg.Nodes))
	}
	if s := idle.Take(cfg); s != nil {
		s.Reset()
		return s
	}
	s := &System{cfg: cfg, caches: make([]*cache.Cache, cfg.Nodes), dir: new(directory)}
	s.dirs = map[trace.Addr]*directory{0: s.dir}
	for i := range s.caches {
		s.caches[i] = cache.New(cfg.L2)
	}
	return s
}

// idle is the process-wide free list of recycled Systems, keyed by
// configuration.
var idle freelist.List[Config, System]

// Recycle hands back a System its caller is done with, so that a later
// NewSystem of the same configuration can reset it and return it
// instead of allocating new caches and block-table pages. It drops the
// System's OnWriteback hook and ignores nil.
//
// The caller must be the System's only user and must not use it once
// it is recycled: NewSystem may hand it to another caller at any time.
// The free list holds each idle System only through a weak pointer, so
// it pins no memory: the next collection frees an idle System unless
// NewSystem has taken it first.
func Recycle(s *System) {
	if s == nil {
		return
	}
	s.OnWriteback = nil
	idle.Put(s.cfg, s)
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Nodes returns the node count.
func (s *System) Nodes() int { return s.cfg.Nodes }

// Home returns the home node of a block (see HomeOf).
func (s *System) Home(a trace.Addr) nodeset.NodeID { return HomeOf(a, s.cfg.Nodes) }

// HomeOf returns the home node of block a in a system of the given node
// count: physical memory is block-interleaved across the per-node memory
// controllers. A power-of-two count, as in every preset, is a mask
// instead of a division: the multicast range path asks on every miss.
func HomeOf(a trace.Addr, nodes int) nodeset.NodeID {
	if n := uint64(nodes); n&(n-1) == 0 {
		return nodeset.NodeID(uint64(a) & (n - 1))
	}
	return nodeset.NodeID(uint64(a) % uint64(nodes))
}

// block returns a's entry in the block table, allocating its page (and
// its region's directory) on first touch.
func (s *System) block(a trace.Addr) *blockState {
	if key := a >> regionBits; key != s.dirKey {
		d := s.dirs[key]
		if d == nil {
			d = new(directory)
			s.dirs[key] = d
		}
		s.dir, s.dirKey = d, key
	}
	pg := &s.dir[a>>pageBits%dirPages]
	if *pg == nil {
		s.install(pg)
	}
	return &(*pg)[a%pageBlocks]
}

// install fills an empty directory slot with a zeroed page: a spare one
// if Reset left any, else a new one.
func (s *System) install(slot **page) {
	if n := len(s.spare); n > 0 {
		*slot = s.spare[n-1]
		s.spare = s.spare[:n-1]
		clear((*slot)[:])
	} else {
		*slot = new(page)
	}
	s.installed = append(s.installed, slot)
}

// lookup returns a copy of a's entry without allocating: the zero value
// (memory-owned, no sharers) for a block on a page never touched.
func (s *System) lookup(a trace.Addr) blockState {
	d := s.dir
	if key := a >> regionBits; key != s.dirKey {
		if d = s.dirs[key]; d == nil {
			return blockState{}
		}
	}
	if pg := d[a>>pageBits%dirPages]; pg != nil {
		return pg[a%pageBlocks]
	}
	return blockState{}
}

// Access performs a processor load or store. If the access hits in the
// node's L2 it returns miss=false and the access is complete. Otherwise it
// applies the full coherence transaction and returns the miss information.
func (s *System) Access(p nodeset.NodeID, a trace.Addr, k AccessKind) (mi MissInfo, miss bool) {
	b := s.block(a)
	if s.cfg.TrackBlockStats {
		b.touched = b.touched.Add(p)
	}
	st := s.caches[p].Lookup(a)
	if st == cache.Modified || (k == Load && st != cache.Invalid) {
		s.caches[p].Touch(a)
		return MissInfo{}, false
	}
	if st == cache.Exclusive && k == Store {
		// Silent E -> M upgrade: the clean-exclusive holder may write
		// without a coherence transaction (the point of the E state).
		s.caches[p].Touch(a)
		s.caches[p].SetState(a, cache.Modified)
		return MissInfo{}, false
	}
	kind := trace.GetShared
	if k == Store {
		kind = trace.GetExclusive
	}
	return s.apply(p, a, b, kind), true
}

// Peek returns the MissInfo a record would observe right now, without
// changing any state. The multicast snooping protocol uses it at the
// interconnect ordering point to test whether a predicted destination set
// is sufficient before committing the transaction, and at the home
// directory to compute the improved destination set of a reissue.
func (s *System) Peek(r trace.Record) MissInfo {
	b := s.lookup(r.Addr)
	return MissInfo{
		Home:           s.Home(r.Addr),
		Owner:          b.ownerID(),
		Sharers:        b.sharers,
		RequesterState: s.caches[r.Requester].Lookup(r.Addr),
	}
}

// Apply replays a trace record known to be a miss, evolving the coherence
// state and returning the pre-request MissInfo. Replaying a trace through
// a System with the same configuration that generated it reproduces the
// exact annotation.
func (s *System) Apply(r trace.Record) MissInfo {
	b := s.block(r.Addr)
	if s.cfg.TrackBlockStats {
		b.touched = b.touched.Add(nodeset.NodeID(r.Requester))
	}
	return s.apply(nodeset.NodeID(r.Requester), r.Addr, b, r.Kind)
}

// apply runs the coherence transaction for a miss by p to block a, whose
// table entry is b.
func (s *System) apply(p nodeset.NodeID, a trace.Addr, b *blockState, kind trace.Kind) MissInfo {
	mi := MissInfo{
		Home:           s.Home(a),
		Owner:          b.ownerID(),
		Sharers:        b.sharers,
		RequesterState: s.caches[p].Lookup(a),
	}
	if s.cfg.TrackBlockStats {
		b.misses++
	}
	switch kind {
	case trace.GetShared:
		// A dirty owner keeps ownership, downgrading M to O. A clean
		// Exclusive owner drops to Shared and memory regains ownership.
		if b.ownerC && b.owner != p {
			oc := s.caches[b.owner]
			switch oc.Lookup(a) {
			case cache.Modified:
				oc.SetState(a, cache.Owned)
			case cache.Exclusive:
				oc.SetState(a, cache.Shared)
				b.sharers = b.sharers.Add(b.owner)
				b.ownerC = false
				b.owner = 0
			}
		}
		if s.cfg.Exclusive && !b.ownerC && b.sharers.Empty() {
			// MOESI: sole reader of a memory-owned block takes E.
			s.insert(p, a, cache.Exclusive)
			b.owner = p
			b.ownerC = true
			break
		}
		s.insert(p, a, cache.Shared)
		b.sharers = b.sharers.Add(p)
	case trace.GetExclusive:
		// Invalidate every other copy; the requester becomes sole owner.
		b.sharers.ForEach(func(n nodeset.NodeID) {
			if n != p {
				s.caches[n].Invalidate(a)
			}
		})
		if b.ownerC && b.owner != p {
			s.caches[b.owner].Invalidate(a)
		}
		s.insert(p, a, cache.Modified)
		b.sharers = 0
		b.owner = p
		b.ownerC = true
	default:
		panic(fmt.Sprintf("coherence: unknown request kind %v", kind))
	}
	return mi
}

// insert places a block into p's cache and processes the coherence
// consequences of any eviction: owned blocks write back to memory, shared
// blocks are dropped silently.
func (s *System) insert(p nodeset.NodeID, a trace.Addr, st cache.State) {
	ev, evicted := s.caches[p].Insert(a, st)
	if !evicted {
		return
	}
	vb := s.block(ev.Addr)
	switch ev.State {
	case cache.Modified, cache.Owned, cache.Exclusive:
		if !vb.ownerC || vb.owner != p {
			panic(fmt.Sprintf("coherence: node %d evicted owned block %#x it does not own", p, uint64(ev.Addr)))
		}
		vb.ownerC = false
		vb.owner = 0
		if ev.State.Dirty() {
			s.writebacks++
			if s.OnWriteback != nil {
				s.OnWriteback(p, ev.Addr)
			}
		}
	case cache.Shared:
		vb.sharers = vb.sharers.Remove(p)
	}
}

// Reset returns s to the state NewSystem(s.Config()) starts in: empty
// caches, every block owned by memory and no writebacks counted. Its
// cost follows what the last run touched, not the machine: each cache
// clears only the pages of sets it filled, and the block table's pages
// become spares, cleared when a later access installs them again.
// OnWriteback is left as it is.
func (s *System) Reset() {
	for _, c := range s.caches {
		c.Reset()
	}
	s.resetBlocks()
	s.writebacks = 0
}

// resetBlocks empties the block table, keeping its pages as spares.
func (s *System) resetBlocks() {
	for _, slot := range s.installed {
		s.spare = append(s.spare, *slot)
		*slot = nil
	}
	s.installed = s.installed[:0]
}

// Snapshot is a compact copy of a System's state: each cache's valid
// lines in recency order, the non-zero block-table entries and the
// writeback count. It is read-only once taken, so any number of Systems
// may restore it concurrently.
type Snapshot struct {
	cfg        Config
	caches     []*cache.Snapshot
	blocks     []blockEntry
	writebacks uint64
}

// blockEntry is one non-zero block-table entry of a Snapshot.
type blockEntry struct {
	addr trace.Addr
	b    blockState
}

// Config returns the configuration of the System the snapshot was taken
// from.
func (snap *Snapshot) Config() Config { return snap.cfg }

// Snapshot copies s's state. Its cost follows the cache pages filled and
// the block-table pages installed since NewSystem or the last Reset.
func (s *System) Snapshot() *Snapshot {
	snap := &Snapshot{cfg: s.cfg, caches: make([]*cache.Snapshot, len(s.caches)), writebacks: s.writebacks}
	for i, c := range s.caches {
		snap.caches[i] = c.Snapshot()
	}
	for a, b := range s.allocated() {
		if *b != (blockState{}) {
			snap.blocks = append(snap.blocks, blockEntry{addr: a, b: *b})
		}
	}
	return snap
}

// Restore makes s's state that of the snapshot, which must come from a
// System of the same configuration: from then on s behaves exactly as
// the snapshotted System did. OnWriteback is left as it is, and Restore
// calls it for nothing.
func (s *System) Restore(snap *Snapshot) {
	if snap.cfg != s.cfg {
		panic(fmt.Sprintf("coherence: restoring a %+v snapshot into a %+v system", snap.cfg, s.cfg))
	}
	for i, c := range s.caches {
		c.Restore(snap.caches[i])
	}
	s.resetBlocks()
	for _, e := range snap.blocks {
		*s.block(e.addr) = e.b
	}
	s.writebacks = snap.writebacks
}

// OwnerOf returns the current owner of a block (MemoryOwner if memory).
func (s *System) OwnerOf(a trace.Addr) nodeset.NodeID {
	b := s.lookup(a)
	return b.ownerID()
}

// SharersOf returns the current Shared-state holders of a block.
func (s *System) SharersOf(a trace.Addr) nodeset.Set { return s.lookup(a).sharers }

// CacheOf exposes a node's L2 for inspection in tests and the timing model.
func (s *System) CacheOf(p nodeset.NodeID) *cache.Cache { return s.caches[p] }

// BlockStat is the per-block record reported to ForEachTouchedBlock.
type BlockStat struct {
	Addr    trace.Addr
	Touched nodeset.Set
	Misses  uint32
}

// ForEachTouchedBlock visits every block that was ever accessed, in
// address order. Requires TrackBlockStats.
func (s *System) ForEachTouchedBlock(fn func(BlockStat)) {
	for a, b := range s.allocated() {
		if !b.touched.Empty() {
			fn(BlockStat{Addr: a, Touched: b.touched, Misses: b.misses})
		}
	}
}

// allocated yields every entry on an installed page, in address order.
// Entries on pages not installed are all zero and are skipped.
func (s *System) allocated() iter.Seq2[trace.Addr, *blockState] {
	return func(yield func(trace.Addr, *blockState) bool) {
		for _, k := range slices.Sorted(maps.Keys(s.dirs)) {
			for pi, pg := range s.dirs[k] {
				if pg == nil {
					continue
				}
				base := k<<regionBits | trace.Addr(pi)<<pageBits
				for i := range pg {
					if !yield(base+trace.Addr(i), &pg[i]) {
						return
					}
				}
			}
		}
	}
}

// CheckInvariants validates the mutual consistency of directory state and
// cache contents for all touched blocks; tests call it after random
// workloads. It returns the first violation found, or nil.
func (s *System) CheckInvariants() error {
	for a, b := range s.allocated() {
		if b.ownerC {
			st := s.caches[b.owner].Lookup(a)
			if !st.IsOwner() {
				return fmt.Errorf("block %#x: directory owner %d holds state %v", uint64(a), b.owner, st)
			}
			if (st == cache.Modified || st == cache.Exclusive) && !b.sharers.Empty() {
				return fmt.Errorf("block %#x: %v owner %d with sharers %v", uint64(a), st, b.owner, b.sharers)
			}
		}
		var bad error
		b.sharers.ForEach(func(n nodeset.NodeID) {
			if st := s.caches[n].Lookup(a); st != cache.Shared && bad == nil {
				bad = fmt.Errorf("block %#x: directory sharer %d holds state %v", uint64(a), n, st)
			}
		})
		if bad != nil {
			return bad
		}
	}
	return nil
}
