package coherence

import (
	"testing"
	"testing/quick"

	"destset/internal/cache"
	"destset/internal/nodeset"
	"destset/internal/trace"
)

// moesiConfig returns a 4-node MOESI system with small caches.
func moesiConfig() Config {
	cfg := testConfig()
	cfg.Exclusive = true
	return cfg
}

func TestMOESIColdLoadTakesExclusive(t *testing.T) {
	s := NewSystem(moesiConfig())
	mi, miss := s.Access(1, 100, Load)
	if !miss || !mi.OwnerIsMemory() {
		t.Fatal("cold load should miss from memory")
	}
	if got := s.CacheOf(1).Lookup(100); got != cache.Exclusive {
		t.Errorf("sole reader state = %v, want E", got)
	}
	if got := s.OwnerOf(100); got != 1 {
		t.Errorf("owner = %d, want the E holder", got)
	}
	if !s.SharersOf(100).Empty() {
		t.Error("E holder must have no sharers")
	}
}

func TestMOSIColdLoadStaysShared(t *testing.T) {
	s := NewSystem(testConfig()) // MOSI: Exclusive disabled
	s.Access(1, 100, Load)
	if got := s.CacheOf(1).Lookup(100); got != cache.Shared {
		t.Errorf("MOSI sole reader state = %v, want S", got)
	}
}

func TestMOESISilentUpgrade(t *testing.T) {
	s := NewSystem(moesiConfig())
	s.Access(1, 100, Load) // E
	mi, miss := s.Access(1, 100, Store)
	if miss {
		t.Fatalf("store to E copy must be a silent hit, got miss %+v", mi)
	}
	if got := s.CacheOf(1).Lookup(100); got != cache.Modified {
		t.Errorf("post-upgrade state = %v, want M", got)
	}
	if got := s.OwnerOf(100); got != 1 {
		t.Errorf("owner = %d, want 1", got)
	}
}

func TestMOESISecondReaderDowngradesExclusive(t *testing.T) {
	s := NewSystem(moesiConfig())
	s.Access(1, 100, Load) // 1: E
	mi, miss := s.Access(2, 100, Load)
	if !miss {
		t.Fatal("second reader should miss")
	}
	// The E holder owns the block, so the miss is cache-to-cache.
	if !mi.CacheToCache(2) || mi.Owner != 1 {
		t.Errorf("second read should be c2c from the E holder: %+v", mi)
	}
	// Clean data: the holder drops to S and memory regains ownership.
	if got := s.CacheOf(1).Lookup(100); got != cache.Shared {
		t.Errorf("old E holder = %v, want S", got)
	}
	if got := s.OwnerOf(100); got != MemoryOwner {
		t.Errorf("owner = %d, want memory", got)
	}
	want := s.SharersOf(100)
	if !want.Contains(1) || !want.Contains(2) {
		t.Errorf("sharers = %v, want {1,2}", want)
	}
}

func TestMOESISilentlyUpgradedBlockServesDirty(t *testing.T) {
	// E silently upgrades to M; a later reader must still find the data
	// at the (now dirty) owner, which downgrades M -> O.
	s := NewSystem(moesiConfig())
	s.Access(1, 100, Load)  // E
	s.Access(1, 100, Store) // silent M
	mi, _ := s.Access(2, 100, Load)
	if !mi.CacheToCache(2) {
		t.Error("read after silent upgrade must be c2c")
	}
	if got := s.CacheOf(1).Lookup(100); got != cache.Owned {
		t.Errorf("dirty owner = %v, want O", got)
	}
	if got := s.OwnerOf(100); got != 1 {
		t.Errorf("owner = %d, want 1 (dirty data)", got)
	}
}

func TestMOESIExclusiveEvictsSilently(t *testing.T) {
	cfg := Config{
		Nodes:     2,
		L2:        cache.Config{SizeBytes: 64, Ways: 1, BlockBytes: 64},
		Exclusive: true,
	}
	s := NewSystem(cfg)
	s.Access(0, 10, Load) // E
	before := s.Writebacks()
	s.Access(0, 20, Load) // evicts 10 (clean E): silent, no writeback
	if s.Writebacks() != before {
		t.Error("clean E eviction must not write back")
	}
	if got := s.OwnerOf(10); got != MemoryOwner {
		t.Errorf("owner after E eviction = %d, want memory", got)
	}
}

func TestMOESIModifiedEvictionWritesBack(t *testing.T) {
	cfg := Config{
		Nodes:     2,
		L2:        cache.Config{SizeBytes: 64, Ways: 1, BlockBytes: 64},
		Exclusive: true,
	}
	s := NewSystem(cfg)
	s.Access(0, 10, Load)  // E
	s.Access(0, 10, Store) // silent M
	before := s.Writebacks()
	s.Access(0, 20, Load) // evicts dirty 10
	if s.Writebacks() != before+1 {
		t.Error("dirty eviction must write back")
	}
}

func TestMOESIWriteInvalidatesExclusiveHolder(t *testing.T) {
	s := NewSystem(moesiConfig())
	s.Access(1, 100, Load) // 1: E
	mi, _ := s.Access(2, 100, Store)
	if mi.Owner != 1 {
		t.Errorf("pre-state owner = %d, want the E holder", mi.Owner)
	}
	if got := s.CacheOf(1).Lookup(100); got != cache.Invalid {
		t.Errorf("E holder after remote write = %v, want I", got)
	}
	if got := s.OwnerOf(100); got != 2 {
		t.Errorf("owner = %d, want 2", got)
	}
}

func TestMOESINeededIncludesExclusiveHolder(t *testing.T) {
	// The directory cannot distinguish E from a silent M, so the E holder
	// must be in every needed destination set.
	s := NewSystem(moesiConfig())
	s.Access(1, 100, Load) // 1: E
	mi, _ := s.Access(2, 100, Load)
	if !mi.Needed(2, trace.GetShared).Contains(1) {
		t.Error("needed set must include the E holder")
	}
}

// Property: MOESI invariants hold after arbitrary access sequences.
func TestQuickMOESIInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		s := NewSystem(moesiConfig())
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
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: under MOESI, replaying generated misses keeps Needed ⊇
// {requester, home} and responders consistent.
func TestQuickMOESIResponderInNeeded(t *testing.T) {
	f := func(ops []uint16) bool {
		s := NewSystem(moesiConfig())
		for _, op := range ops {
			p := nodeset.NodeID(op % 4)
			a := trace.Addr((op / 4) % 32)
			k := Load
			kind := trace.GetShared
			if op&0x2000 != 0 {
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
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
