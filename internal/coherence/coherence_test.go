package coherence

import (
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"destset/internal/cache"
	"destset/internal/nodeset"
	"destset/internal/trace"
)

// testConfig returns a 4-node system with tiny caches so eviction paths
// are exercised quickly.
func testConfig() Config {
	return Config{
		Nodes:           4,
		L2:              cache.Config{SizeBytes: 16 * 64, Ways: 2, BlockBytes: 64},
		TrackBlockStats: true,
	}
}

func TestColdLoadMissFromMemory(t *testing.T) {
	s := NewSystem(testConfig())
	mi, miss := s.Access(1, 100, Load)
	if !miss {
		t.Fatal("cold access should miss")
	}
	if !mi.OwnerIsMemory() {
		t.Error("cold block should be memory-owned")
	}
	if mi.Home != s.Home(100) {
		t.Errorf("Home = %d, want %d", mi.Home, s.Home(100))
	}
	if mi.CacheToCache(1) {
		t.Error("memory-sourced miss is not cache-to-cache")
	}
	if mi.DirIndirection(1) {
		t.Error("memory-sourced miss needs no directory indirection")
	}
	if got := s.CacheOf(1).Lookup(100); got != cache.Shared {
		t.Errorf("requester state = %v, want S", got)
	}
	if !s.SharersOf(100).Contains(1) {
		t.Error("requester should be recorded as sharer")
	}
}

func TestLoadHitAfterMiss(t *testing.T) {
	s := NewSystem(testConfig())
	s.Access(1, 100, Load)
	if _, miss := s.Access(1, 100, Load); miss {
		t.Error("second load should hit")
	}
}

func TestStoreThenRemoteLoadIsCacheToCache(t *testing.T) {
	s := NewSystem(testConfig())
	s.Access(0, 100, Store)
	if got := s.OwnerOf(100); got != 0 {
		t.Fatalf("owner = %d, want 0", got)
	}
	mi, miss := s.Access(2, 100, Load)
	if !miss {
		t.Fatal("remote load should miss")
	}
	if !mi.CacheToCache(2) {
		t.Error("load from modified remote block should be cache-to-cache")
	}
	if mi.Owner != 0 {
		t.Errorf("Owner = %d, want 0", mi.Owner)
	}
	// Owner downgrades M -> O, requester gets S.
	if got := s.CacheOf(0).Lookup(100); got != cache.Owned {
		t.Errorf("previous owner state = %v, want O", got)
	}
	if got := s.CacheOf(2).Lookup(100); got != cache.Shared {
		t.Errorf("requester state = %v, want S", got)
	}
	if got := s.OwnerOf(100); got != 0 {
		t.Errorf("owner after GETS = %d, want 0 (MOSI keeps ownership)", got)
	}
}

func TestStoreInvalidatesSharers(t *testing.T) {
	s := NewSystem(testConfig())
	s.Access(0, 100, Store) // 0: M
	s.Access(1, 100, Load)  // 0: O, 1: S
	s.Access(2, 100, Load)  // 2: S
	mi, miss := s.Access(3, 100, Store)
	if !miss {
		t.Fatal("store should miss")
	}
	if mi.Owner != 0 {
		t.Errorf("pre-request owner = %d, want 0", mi.Owner)
	}
	if !mi.Sharers.Contains(1) || !mi.Sharers.Contains(2) {
		t.Errorf("pre-request sharers = %v, want {1,2}", mi.Sharers)
	}
	for _, n := range []nodeset.NodeID{0, 1, 2} {
		if got := s.CacheOf(n).Lookup(100); got != cache.Invalid {
			t.Errorf("node %d state = %v, want I after GETX", n, got)
		}
	}
	if got := s.CacheOf(3).Lookup(100); got != cache.Modified {
		t.Errorf("writer state = %v, want M", got)
	}
	if got := s.OwnerOf(100); got != 3 {
		t.Errorf("owner = %d, want 3", got)
	}
	if !s.SharersOf(100).Empty() {
		t.Errorf("sharers = %v, want empty", s.SharersOf(100))
	}
}

func TestUpgradeMiss(t *testing.T) {
	s := NewSystem(testConfig())
	s.Access(0, 100, Load) // 0: S, memory owner
	s.Access(1, 100, Load) // 1: S
	mi, miss := s.Access(0, 100, Store)
	if !miss {
		t.Fatal("store to Shared copy must be an upgrade miss")
	}
	if mi.RequesterState != cache.Shared {
		t.Errorf("RequesterState = %v, want S", mi.RequesterState)
	}
	if !mi.Sharers.Contains(0) || !mi.Sharers.Contains(1) {
		t.Errorf("Sharers = %v, want {0,1}", mi.Sharers)
	}
	if !mi.OwnerIsMemory() {
		t.Error("owner should be memory pre-upgrade")
	}
	if got := s.CacheOf(1).Lookup(100); got != cache.Invalid {
		t.Errorf("other sharer = %v, want invalidated", got)
	}
	if got := s.CacheOf(0).Lookup(100); got != cache.Modified {
		t.Errorf("upgrader = %v, want M", got)
	}
}

func TestUpgradeByOwnerHasNoResponder(t *testing.T) {
	s := NewSystem(testConfig())
	s.Access(0, 100, Store) // 0: M
	s.Access(1, 100, Load)  // 0: O, 1: S
	mi, miss := s.Access(0, 100, Store)
	if !miss {
		t.Fatal("store to Owned copy with sharers must miss (upgrade)")
	}
	if mi.RequesterState != cache.Owned {
		t.Errorf("RequesterState = %v, want O", mi.RequesterState)
	}
	_, fromMem, none := mi.Responder(0)
	if fromMem || !none {
		t.Error("owner upgrade needs no data response")
	}
	if mi.DirIndirection(0) {
		t.Error("owner upgrade is not a directory indirection")
	}
}

func TestStoreHitOnModified(t *testing.T) {
	s := NewSystem(testConfig())
	s.Access(0, 100, Store)
	if _, miss := s.Access(0, 100, Store); miss {
		t.Error("store to own Modified block should hit")
	}
	if _, miss := s.Access(0, 100, Load); miss {
		t.Error("load of own Modified block should hit")
	}
}

func TestNeededSet(t *testing.T) {
	s := NewSystem(testConfig())
	s.Access(0, 100, Store)
	s.Access(1, 100, Load)
	s.Access(2, 100, Load)
	mi, _ := s.Access(3, 100, Store)
	home := s.Home(100)
	needGETX := mi.Needed(3, trace.GetExclusive)
	want := nodeset.Of(3, home, 0, 1, 2)
	if needGETX != want {
		t.Errorf("Needed(GETX) = %v, want %v", needGETX, want)
	}
	needGETS := mi.Needed(3, trace.GetShared)
	want = nodeset.Of(3, home, 0)
	if needGETS != want {
		t.Errorf("Needed(GETS) = %v, want %v", needGETS, want)
	}
}

func TestDirMustSee(t *testing.T) {
	s := NewSystem(testConfig())
	s.Access(0, 100, Store) // owner 0
	s.Access(1, 100, Load)  // sharer 1
	mi, _ := s.Access(2, 100, Store)
	// Write by 2: must see owner 0 and sharer 1.
	if got := mi.DirMustSee(2, trace.GetExclusive); got != 2 {
		t.Errorf("DirMustSee(GETX) = %d, want 2", got)
	}
	if got := mi.DirMustSee(2, trace.GetShared); got != 1 {
		t.Errorf("DirMustSee(GETS) = %d, want 1 (owner only)", got)
	}

	s2 := NewSystem(testConfig())
	mi2, _ := s2.Access(0, 50, Load)
	if got := mi2.DirMustSee(0, trace.GetShared); got != 0 {
		t.Errorf("cold read DirMustSee = %d, want 0", got)
	}
}

func TestResponder(t *testing.T) {
	s := NewSystem(testConfig())
	mi, _ := s.Access(0, 100, Load)
	node, fromMem, none := mi.Responder(0)
	if !fromMem || none || node != s.Home(100) {
		t.Errorf("cold miss responder = (%d,%v,%v), want memory at home", node, fromMem, none)
	}
	s.Access(1, 100, Store)
	mi, _ = s.Access(2, 100, Load)
	node, fromMem, none = mi.Responder(2)
	if fromMem || none || node != 1 {
		t.Errorf("c2c responder = (%d,%v,%v), want node 1", node, fromMem, none)
	}
}

func TestEvictionWritesBackOwnership(t *testing.T) {
	cfg := Config{
		Nodes: 2,
		// Direct-mapped single-set cache: every insert evicts.
		L2:              cache.Config{SizeBytes: 64, Ways: 1, BlockBytes: 64},
		TrackBlockStats: true,
	}
	s := NewSystem(cfg)
	s.Access(0, 10, Store) // 0 owns 10
	s.Access(0, 20, Store) // evicts 10 -> memory owns 10 again
	if got := s.OwnerOf(10); got != MemoryOwner {
		t.Errorf("owner of evicted dirty block = %d, want memory", got)
	}
	mi, miss := s.Access(1, 10, Load)
	if !miss || !mi.OwnerIsMemory() {
		t.Error("post-writeback load should be a memory miss")
	}
}

func TestEvictionDropsSharer(t *testing.T) {
	cfg := Config{
		Nodes:           2,
		L2:              cache.Config{SizeBytes: 64, Ways: 1, BlockBytes: 64},
		TrackBlockStats: true,
	}
	s := NewSystem(cfg)
	s.Access(0, 10, Load) // 0 shares 10
	s.Access(0, 20, Load) // evicts 10 silently
	if s.SharersOf(10).Contains(0) {
		t.Error("evicted sharer should leave the sharer set")
	}
}

func TestApplyReplayMatchesAccess(t *testing.T) {
	gen := NewSystem(testConfig())
	rep := NewSystem(testConfig())
	accesses := []struct {
		p nodeset.NodeID
		a trace.Addr
		k AccessKind
	}{
		{0, 1, Store}, {1, 1, Load}, {2, 1, Store}, {0, 2, Load},
		{3, 1, Load}, {3, 2, Store}, {0, 1, Load}, {1, 2, Load},
	}
	var recs []trace.Record
	var infos []MissInfo
	for _, ac := range accesses {
		mi, miss := gen.Access(ac.p, ac.a, ac.k)
		if !miss {
			continue
		}
		kind := trace.GetShared
		if ac.k == Store {
			kind = trace.GetExclusive
		}
		recs = append(recs, trace.Record{Addr: ac.a, Requester: uint8(ac.p), Kind: kind})
		infos = append(infos, mi)
	}
	for i, r := range recs {
		got := rep.Apply(r)
		if got != infos[i] {
			t.Errorf("replay record %d: %+v != %+v", i, got, infos[i])
		}
	}
}

func TestBlockStats(t *testing.T) {
	s := NewSystem(testConfig())
	// Touch high blocks first, across a page boundary (4095/4096), a
	// directory boundary (2^27-1 / 2^27) and far above both: the stats
	// still come out in address order.
	s.Access(2, 1<<40, Store)
	s.Access(0, 5, Load)
	s.Access(1, 5, Store)
	s.Access(3, 1<<27, Load)
	s.Access(0, 9, Load)
	s.Access(1, 1<<27-1, Load)
	s.Access(2, 4096, Load)
	s.Access(2, 4095, Load)
	s.Access(3, 4096, Store)
	var stats []BlockStat
	s.ForEachTouchedBlock(func(b BlockStat) { stats = append(stats, b) })
	want := []BlockStat{
		{Addr: 5, Touched: nodeset.Of(0, 1), Misses: 2},
		{Addr: 9, Touched: nodeset.Of(0), Misses: 1},
		{Addr: 4095, Touched: nodeset.Of(2), Misses: 1},
		{Addr: 4096, Touched: nodeset.Of(2, 3), Misses: 2},
		{Addr: 1<<27 - 1, Touched: nodeset.Of(1), Misses: 1},
		{Addr: 1 << 27, Touched: nodeset.Of(3), Misses: 1},
		{Addr: 1 << 40, Touched: nodeset.Of(2), Misses: 1},
	}
	if !slices.Equal(stats, want) {
		t.Errorf("block stats = %+v, want %+v", stats, want)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// Reads of blocks never touched see memory ownership and no sharers
// without allocating, and the block table's memory follows the pages a
// run touches, not the highest block address.
func TestBlockTableIsSparse(t *testing.T) {
	s := NewSystem(testConfig())
	s.Access(1, 100, Store)
	// 101 shares 100's page, 4096 is on a page never touched, 1<<27 and
	// 1<<40 are in regions without a directory.
	for _, a := range []trace.Addr{101, 4096, 1 << 27, 1 << 40} {
		r := trace.Record{Addr: a, Requester: 2, Kind: trace.GetShared}
		if got := s.OwnerOf(a); got != MemoryOwner {
			t.Errorf("OwnerOf(%#x) = %d, want memory", uint64(a), got)
		}
		if got := s.SharersOf(a); !got.Empty() {
			t.Errorf("SharersOf(%#x) = %v, want empty", uint64(a), got)
		}
		if got, want := s.Peek(r), (MissInfo{Home: s.Home(a), Owner: MemoryOwner}); got != want {
			t.Errorf("Peek(%#x) = %+v, want %+v", uint64(a), got, want)
		}
		if n := testing.AllocsPerRun(100, func() {
			s.OwnerOf(a)
			s.SharersOf(a)
			s.Peek(r)
		}); n != 0 {
			t.Errorf("reading untouched block %#x allocates %v times", uint64(a), n)
		}
	}

	s = NewSystem(testConfig())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.Access(0, 7, Store)
	s.Access(1, 7+1<<40, Load)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("touching two blocks 2^40 apart allocated %d bytes, want < 1 MiB", got)
	}
	if s.OwnerOf(7) != 0 || !s.SharersOf(7+1<<40).Contains(1) {
		t.Error("far-apart blocks lost their state")
	}
}

func TestHomeInterleaving(t *testing.T) {
	s := NewSystem(testConfig())
	for a := trace.Addr(0); a < 16; a++ {
		if got, want := s.Home(a), nodeset.NodeID(a%4); got != want {
			t.Errorf("Home(%d) = %d, want %d", a, got, want)
		}
	}
}

func TestNewSystemPanicsOnBadNodes(t *testing.T) {
	for _, n := range []int{0, -3, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSystem(nodes=%d) should panic", n)
				}
			}()
			NewSystem(Config{Nodes: n, L2: cache.Config{SizeBytes: 64, Ways: 1, BlockBytes: 64}})
		}()
	}
}

// spread is an odd stride that scatters the property tests' 64 blocks
// over 64 block-table pages in 8 directories while their cache set
// indices and home nodes still vary.
const spread = 1<<24 + 1

// Property: after any access sequence, directory state and cache contents
// stay mutually consistent.
func TestQuickInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		s := NewSystem(testConfig())
		for _, op := range ops {
			p := nodeset.NodeID(op % 4)
			a := trace.Addr((op/4)%64) * spread
			k := Load
			if op&0x1000 != 0 {
				k = Store
			}
			s.Access(p, a, k)
		}
		return s.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: a miss's Needed set always contains requester and home, and
// the responder (when a node) is in the needed set.
func TestQuickNeededContainsEssentials(t *testing.T) {
	f := func(ops []uint16) bool {
		s := NewSystem(testConfig())
		for _, op := range ops {
			p := nodeset.NodeID(op % 4)
			a := trace.Addr((op / 4) % 64)
			k := Load
			kind := trace.GetShared
			if op&0x1000 != 0 {
				k = Store
				kind = trace.GetExclusive
			}
			mi, miss := s.Access(p, a, k)
			if !miss {
				continue
			}
			need := mi.Needed(p, kind)
			if !need.Contains(p) || !need.Contains(mi.Home) {
				return false
			}
			if node, fromMem, none := mi.Responder(p); !fromMem && !none && !need.Contains(node) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// observed is everything a System reports for one operation.
type observed struct {
	mi, peek MissInfo
	miss     bool
}

// play decodes op into a load or store by one node to one of 64 blocks,
// spread over eight block-table pages in two directories, and runs it on
// s: through Access, or, for some ops that miss, through Apply as a
// trace replay would. It reports the operation's outcome and the Peek
// that preceded it.
func play(s *System, op uint16) observed {
	p := nodeset.NodeID(int(op) % s.Nodes())
	i := trace.Addr(op / 8 % 64)
	a := i*257 + i%2<<regionBits
	k, kind := Load, trace.GetShared
	if op&0x1000 != 0 {
		k, kind = Store, trace.GetExclusive
	}
	r := trace.Record{Addr: a, Requester: uint8(p), Kind: kind}
	o := observed{peek: s.Peek(r)}
	st := s.CacheOf(p).Lookup(a)
	hit := st == cache.Modified || (k == Load && st != cache.Invalid) || (k == Store && st == cache.Exclusive)
	if op&4 != 0 && !hit {
		o.mi, o.miss = s.Apply(r), true
		return o
	}
	o.mi, o.miss = s.Access(p, a, k)
	return o
}

// Property: on a small, evicting L2, a Reset System behaves like a new
// one, and a System restored from a snapshot behaves like the
// snapshotted one: the same Access, Apply and Peek results, the same
// writebacks in the same order, the same block statistics and a
// consistent state after each restore — whatever either held before,
// under MOSI and MOESI.
func TestResetAndRestoreAreExact(t *testing.T) {
	moesi := testConfig()
	moesi.Exclusive = true
	for _, cfg := range []Config{testConfig(), moesi} {
		type wb struct {
			from nodeset.NodeID
			a    trace.Addr
		}
		newSys := func(log *[]wb) *System {
			s := NewSystem(cfg)
			s.OnWriteback = func(from nodeset.NodeID, a trace.Addr) { *log = append(*log, wb{from, a}) }
			return s
		}
		stats := func(s *System) []BlockStat {
			var out []BlockStat
			s.ForEachTouchedBlock(func(b BlockStat) { out = append(out, b) })
			return out
		}
		f := func(before, after []uint16) bool {
			var xl, yl, rl, fl []wb
			x, y, r := newSys(&xl), newSys(&yl), newSys(&rl)
			for _, op := range before {
				play(x, op)
				play(r, op)
			}
			for _, op := range after {
				play(y, op)
			}
			snap := x.Snapshot()
			y.Restore(snap)
			if y.CheckInvariants() != nil || !reflect.DeepEqual(y.Snapshot(), snap) {
				return false
			}
			r.Reset()
			fresh := newSys(&fl)
			xl, yl, rl = nil, nil, nil
			for _, op := range after {
				if play(x, op) != play(y, op) || play(r, op) != play(fresh, op) {
					return false
				}
			}
			return slices.Equal(xl, yl) && slices.Equal(rl, fl) &&
				x.Writebacks() == y.Writebacks() && r.Writebacks() == fresh.Writebacks() &&
				reflect.DeepEqual(stats(x), stats(y)) && reflect.DeepEqual(stats(r), stats(fresh)) &&
				y.CheckInvariants() == nil && r.CheckInvariants() == nil
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("exclusive=%v: %v", cfg.Exclusive, err)
		}
	}
}
