package predictor

import (
	"testing"

	"destset/internal/nodeset"
	"destset/internal/trace"
)

const testNodes = 16

// unboundedCfg builds an unbounded predictor with plain block indexing so
// policy tests are not confounded by capacity or aggregation effects.
func unboundedCfg(p Policy) Config {
	return Config{
		Policy:   p,
		Nodes:    testNodes,
		Entries:  0,
		Indexing: Indexing{Mode: ByBlock, MacroblockBytes: trace.BlockBytes},
	}
}

func q(addr trace.Addr, req nodeset.NodeID, kind trace.Kind) Query {
	return Query{Addr: addr, PC: 0x100, Requester: req, Home: 7, Kind: kind}
}

func TestMinimalFloor(t *testing.T) {
	// Every policy must include {requester, home} in every prediction.
	for _, pol := range []Policy{Owner, BroadcastIfShared, Group, OwnerGroup, StickySpatial, Minimal, Broadcast} {
		p := New(unboundedCfg(pol))
		got := p.Predict(q(5, 3, trace.GetShared))
		if !got.Contains(3) || !got.Contains(7) {
			t.Errorf("%v: prediction %v missing requester or home", pol, got)
		}
	}
}

func TestColdPredictionIsMinimal(t *testing.T) {
	for _, pol := range []Policy{Owner, BroadcastIfShared, Group, OwnerGroup} {
		p := New(unboundedCfg(pol))
		got := p.Predict(q(5, 3, trace.GetExclusive))
		if got != nodeset.Of(3, 7) {
			t.Errorf("%v: cold prediction = %v, want {3,7}", pol, got)
		}
	}
}

// --- Owner ---

func TestOwnerLearnsFromResponse(t *testing.T) {
	p := New(unboundedCfg(Owner))
	p.TrainResponse(Response{Addr: 5, Responder: 11})
	got := p.Predict(q(5, 3, trace.GetShared))
	if got != nodeset.Of(3, 7, 11) {
		t.Errorf("prediction = %v, want {3,7,11}", got)
	}
}

func TestOwnerLearnsFromExclusiveRequest(t *testing.T) {
	p := New(unboundedCfg(Owner))
	p.TrainRequest(External{Addr: 5, Requester: 9, Kind: trace.GetExclusive})
	got := p.Predict(q(5, 3, trace.GetShared))
	if !got.Contains(9) {
		t.Errorf("prediction %v should contain the last writer 9", got)
	}
}

func TestOwnerIgnoresSharedRequests(t *testing.T) {
	p := New(unboundedCfg(Owner))
	p.TrainRequest(External{Addr: 5, Requester: 9, Kind: trace.GetShared})
	got := p.Predict(q(5, 3, trace.GetShared))
	if got.Contains(9) {
		t.Errorf("GETS requests must not train Owner (Table 3); got %v", got)
	}
}

func TestOwnerClearsOnMemoryResponse(t *testing.T) {
	p := New(unboundedCfg(Owner))
	p.TrainResponse(Response{Addr: 5, Responder: 11})
	p.TrainResponse(Response{Addr: 5, FromMemory: true})
	got := p.Predict(q(5, 3, trace.GetShared))
	if got.Contains(11) {
		t.Errorf("memory response should clear the owner; got %v", got)
	}
}

func TestOwnerMemoryResponseDoesNotAllocate(t *testing.T) {
	cfg := unboundedCfg(Owner)
	p := New(cfg).(*ownerPredictor)
	p.TrainResponse(Response{Addr: 5, FromMemory: true})
	if p.table.Len() != 0 {
		t.Error("memory responses must not allocate entries (§3.1)")
	}
}

func TestOwnerTracksLatestOwner(t *testing.T) {
	p := New(unboundedCfg(Owner))
	p.TrainResponse(Response{Addr: 5, Responder: 1})
	p.TrainRequest(External{Addr: 5, Requester: 2, Kind: trace.GetExclusive})
	got := p.Predict(q(5, 3, trace.GetShared))
	if got.Contains(1) || !got.Contains(2) {
		t.Errorf("prediction %v should track only the latest owner 2", got)
	}
}

func TestOwnerPairwiseSharing(t *testing.T) {
	// Two nodes ping-ponging a block should each predict the other.
	pa := New(unboundedCfg(Owner))
	pb := New(unboundedCfg(Owner))
	// a writes; b observes the GETX. b writes; a observes.
	pb.TrainRequest(External{Addr: 9, Requester: 0, Kind: trace.GetExclusive})
	pa.TrainRequest(External{Addr: 9, Requester: 1, Kind: trace.GetExclusive})
	if got := pa.Predict(q(9, 0, trace.GetExclusive)); !got.Contains(1) {
		t.Errorf("a's prediction %v should include b", got)
	}
	if got := pb.Predict(q(9, 1, trace.GetExclusive)); !got.Contains(0) {
		t.Errorf("b's prediction %v should include a", got)
	}
}

// --- Broadcast-If-Shared ---

func TestBISBroadcastsAfterSharingEvidence(t *testing.T) {
	p := New(unboundedCfg(BroadcastIfShared))
	p.TrainResponse(Response{Addr: 5, Responder: 11})
	if got := p.Predict(q(5, 3, trace.GetShared)); got != nodeset.Of(3, 7) {
		t.Errorf("counter=1 should still predict minimal, got %v", got)
	}
	p.TrainResponse(Response{Addr: 5, Responder: 11})
	if got := p.Predict(q(5, 3, trace.GetShared)); got != nodeset.All(testNodes) {
		t.Errorf("counter=2 should broadcast, got %v", got)
	}
}

func TestBISTrainsDownOnMemoryResponses(t *testing.T) {
	p := New(unboundedCfg(BroadcastIfShared))
	for i := 0; i < 3; i++ {
		p.TrainResponse(Response{Addr: 5, Responder: 11})
	}
	// Counter saturates at 3; two memory responses bring it to 1.
	p.TrainResponse(Response{Addr: 5, FromMemory: true})
	p.TrainResponse(Response{Addr: 5, FromMemory: true})
	if got := p.Predict(q(5, 3, trace.GetShared)); got != nodeset.Of(3, 7) {
		t.Errorf("trained-down entry should predict minimal, got %v", got)
	}
}

func TestBISSaturation(t *testing.T) {
	p := New(unboundedCfg(BroadcastIfShared))
	for i := 0; i < 100; i++ {
		p.TrainRequest(External{Addr: 5, Requester: 1, Kind: trace.GetExclusive})
	}
	// Saturated at 3: exactly two decrements may not suffice to stop
	// broadcasting (3 -> 1 is still <= 1: it must stop).
	p.TrainResponse(Response{Addr: 5, FromMemory: true})
	p.TrainResponse(Response{Addr: 5, FromMemory: true})
	if got := p.Predict(q(5, 3, trace.GetShared)); got != nodeset.Of(3, 7) {
		t.Errorf("2-bit saturation violated: got %v", got)
	}
}

// --- Group ---

func TestGroupPredictsRecentSharers(t *testing.T) {
	p := New(unboundedCfg(Group))
	for _, n := range []nodeset.NodeID{2, 4} {
		p.TrainRequest(External{Addr: 5, Requester: n, Kind: trace.GetExclusive})
		p.TrainRequest(External{Addr: 5, Requester: n, Kind: trace.GetExclusive})
	}
	got := p.Predict(q(5, 3, trace.GetExclusive))
	if !got.Contains(2) || !got.Contains(4) {
		t.Errorf("prediction %v should contain trained group {2,4}", got)
	}
	if got.Contains(9) {
		t.Errorf("prediction %v should not contain untrained node 9", got)
	}
}

func TestGroupSingleObservationInsufficient(t *testing.T) {
	p := New(unboundedCfg(Group))
	p.TrainRequest(External{Addr: 5, Requester: 2, Kind: trace.GetExclusive})
	if got := p.Predict(q(5, 3, trace.GetExclusive)); got.Contains(2) {
		t.Errorf("one observation (counter=1) should not predict; got %v", got)
	}
}

func TestGroupRolloverDecay(t *testing.T) {
	p := New(unboundedCfg(Group))
	// Node 2 becomes active (counter saturates at 3).
	for i := 0; i < 4; i++ {
		p.TrainRequest(External{Addr: 5, Requester: 2, Kind: trace.GetExclusive})
	}
	// Then node 9 dominates; every event ticks the rollover counter, so
	// after enough rollovers node 2's counter decays below threshold.
	for i := 0; i < 3*defaultRolloverLimit; i++ {
		p.TrainRequest(External{Addr: 5, Requester: 9, Kind: trace.GetExclusive})
	}
	got := p.Predict(q(5, 3, trace.GetExclusive))
	if got.Contains(2) {
		t.Errorf("inactive node 2 should have decayed out; got %v", got)
	}
	if !got.Contains(9) {
		t.Errorf("active node 9 should be predicted; got %v", got)
	}
}

func TestGroupMemoryResponseTicksClockWithoutAllocating(t *testing.T) {
	cfg := unboundedCfg(Group)
	p := New(cfg).(*groupPredictor)
	p.TrainResponse(Response{Addr: 5, FromMemory: true})
	if p.table.Len() != 0 {
		t.Error("memory response must not allocate a Group entry")
	}
	p.TrainResponse(Response{Addr: 5, Responder: 2})
	if p.table.Len() != 1 {
		t.Error("cache response must allocate a Group entry")
	}
}

// --- Owner/Group ---

func TestOwnerGroupSplitsByRequestKind(t *testing.T) {
	p := New(unboundedCfg(OwnerGroup))
	// Train a two-node group; last writer is node 4.
	for i := 0; i < 2; i++ {
		p.TrainRequest(External{Addr: 5, Requester: 2, Kind: trace.GetExclusive})
		p.TrainRequest(External{Addr: 5, Requester: 4, Kind: trace.GetExclusive})
	}
	read := p.Predict(q(5, 3, trace.GetShared))
	write := p.Predict(q(5, 3, trace.GetExclusive))
	if read != nodeset.Of(3, 7, 4) {
		t.Errorf("read prediction = %v, want owner-only {3,7,4}", read)
	}
	if !write.Contains(2) || !write.Contains(4) {
		t.Errorf("write prediction = %v, want group {2,4} included", write)
	}
}

func TestOwnerGroupReadUsesLessBandwidthThanGroup(t *testing.T) {
	og := New(unboundedCfg(OwnerGroup))
	g := New(unboundedCfg(Group))
	for _, pr := range []Predictor{og, g} {
		for i := 0; i < 2; i++ {
			for _, n := range []nodeset.NodeID{1, 2, 4, 8} {
				pr.TrainRequest(External{Addr: 5, Requester: n, Kind: trace.GetExclusive})
			}
		}
	}
	ogRead := og.Predict(q(5, 3, trace.GetShared))
	gRead := g.Predict(q(5, 3, trace.GetShared))
	if ogRead.Count() >= gRead.Count() {
		t.Errorf("Owner/Group read set %v should be smaller than Group's %v", ogRead, gRead)
	}
}

// --- StickySpatial ---

func TestStickySpatialAggregatesNeighbors(t *testing.T) {
	cfg := unboundedCfg(StickySpatial)
	cfg.Entries = 64
	p := New(cfg)
	// Train the entry for block 10 only.
	p.TrainResponse(Response{Addr: 10, Responder: 5})
	// Blocks 9 and 11 index the neighbor slots and should see node 5.
	for _, a := range []trace.Addr{9, 10, 11} {
		if got := p.Predict(q(a, 3, trace.GetShared)); !got.Contains(5) {
			t.Errorf("block %d prediction %v should aggregate neighbor mask", a, got)
		}
	}
	if got := p.Predict(q(13, 3, trace.GetShared)); got.Contains(5) {
		t.Errorf("block 13 is no neighbor of 10; got %v", got)
	}
}

func TestStickySpatialNeverTrainsDown(t *testing.T) {
	cfg := unboundedCfg(StickySpatial)
	cfg.Entries = 64
	p := New(cfg)
	p.TrainResponse(Response{Addr: 10, Responder: 5})
	for i := 0; i < 50; i++ {
		p.TrainResponse(Response{Addr: 10, FromMemory: true})
	}
	if got := p.Predict(q(10, 3, trace.GetShared)); !got.Contains(5) {
		t.Errorf("sticky predictor trained down: %v", got)
	}
}

func TestStickySpatialLearnsFromRetry(t *testing.T) {
	cfg := unboundedCfg(StickySpatial)
	cfg.Entries = 64
	p := New(cfg)
	p.TrainRetry(Retry{Addr: 10, Needed: nodeset.Of(1, 2, 3)})
	got := p.Predict(q(10, 0, trace.GetExclusive))
	if !got.Superset(nodeset.Of(1, 2, 3)) {
		t.Errorf("retry feedback not learned: %v", got)
	}
}

func TestStickySpatialReplacementResetsMask(t *testing.T) {
	cfg := unboundedCfg(StickySpatial)
	cfg.Entries = 16
	p := New(cfg)
	p.TrainResponse(Response{Addr: 3, Responder: 5})
	// Address 19 aliases slot 3 (16 entries); training it replaces the tag
	// and must reset the stale mask.
	p.TrainResponse(Response{Addr: 19, Responder: 9})
	got := p.Predict(q(19, 0, trace.GetShared))
	if got.Contains(5) {
		t.Errorf("replaced entry kept stale node 5: %v", got)
	}
	if !got.Contains(9) {
		t.Errorf("replaced entry missing new node 9: %v", got)
	}
}

func TestStickySpatialAliasingPollutes(t *testing.T) {
	// Predictions ignore tags: an aliased block sees the other's mask.
	cfg := unboundedCfg(StickySpatial)
	cfg.Entries = 16
	p := New(cfg)
	p.TrainResponse(Response{Addr: 3, Responder: 5})
	if got := p.Predict(q(19, 0, trace.GetShared)); !got.Contains(5) {
		t.Errorf("aliased prediction should see stale mask (by design): %v", got)
	}
}

// --- Reference policies ---

func TestMinimalAndBroadcast(t *testing.T) {
	m := New(unboundedCfg(Minimal))
	if got := m.Predict(q(5, 3, trace.GetExclusive)); got != nodeset.Of(3, 7) {
		t.Errorf("Minimal = %v", got)
	}
	b := New(unboundedCfg(Broadcast))
	if got := b.Predict(q(5, 3, trace.GetExclusive)); got != nodeset.All(testNodes) {
		t.Errorf("Broadcast = %v", got)
	}
}

func TestOraclePredictsNeeded(t *testing.T) {
	p := New(unboundedCfg(Oracle))
	p.(OracleSetter).SetOracle(nodeset.Of(1, 9))
	got := p.Predict(q(5, 3, trace.GetShared))
	if got != nodeset.Of(1, 3, 7, 9) {
		t.Errorf("Oracle = %v, want needed ∪ minimal", got)
	}
}

// --- Indexing ---

func TestMacroblockIndexSharesEntries(t *testing.T) {
	cfg := unboundedCfg(Owner)
	cfg.Indexing = Indexing{Mode: ByBlock, MacroblockBytes: 1024}
	p := New(cfg)
	// Train on block 0; blocks 0..15 share the 1024-byte macroblock.
	p.TrainResponse(Response{Addr: 0, Responder: 11})
	if got := p.Predict(q(15, 3, trace.GetShared)); !got.Contains(11) {
		t.Errorf("macroblock sibling should share the entry: %v", got)
	}
	if got := p.Predict(q(16, 3, trace.GetShared)); got.Contains(11) {
		t.Errorf("next macroblock must not share the entry: %v", got)
	}
}

func TestPCIndexing(t *testing.T) {
	cfg := unboundedCfg(Owner)
	cfg.Indexing = Indexing{Mode: ByPC}
	p := New(cfg)
	p.TrainResponse(Response{Addr: 5, PC: 0x400, Responder: 11})
	// Same PC, different address: shares the entry.
	got := p.Predict(Query{Addr: 999, PC: 0x400, Requester: 3, Home: 7, Kind: trace.GetShared})
	if !got.Contains(11) {
		t.Errorf("PC-indexed prediction should hit: %v", got)
	}
	// Different PC: misses.
	got = p.Predict(Query{Addr: 5, PC: 0x800, Requester: 3, Home: 7, Kind: trace.GetShared})
	if got.Contains(11) {
		t.Errorf("different PC should not hit: %v", got)
	}
}

func TestIndexingStrings(t *testing.T) {
	cases := map[string]Indexing{
		"64B":   {Mode: ByBlock, MacroblockBytes: 64},
		"1024B": {Mode: ByBlock, MacroblockBytes: 1024},
		"PC":    {Mode: ByPC},
	}
	for want, ix := range cases {
		if got := ix.String(); got != want {
			t.Errorf("Indexing.String() = %q, want %q", got, want)
		}
	}
}

// --- Config / construction ---

func TestConfigNames(t *testing.T) {
	cfg := DefaultConfig(Group, 16)
	if got := cfg.Name(); got != "Group[1024B,8192e]" {
		t.Errorf("Name = %q", got)
	}
	cfg.Entries = 0
	if got := cfg.Name(); got != "Group[1024B,unbounded]" {
		t.Errorf("Name = %q", got)
	}
}

func TestStorageBytesWithinPaperBudget(t *testing.T) {
	// §4.3: total predictor size ranges 32kB..64kB for 8192 entries.
	for _, pol := range []Policy{Owner, BroadcastIfShared, Group} {
		cfg := DefaultConfig(pol, 16)
		sz := cfg.StorageBytes()
		if sz < 32<<10 || sz > 64<<10 {
			t.Errorf("%v storage = %d bytes, want within [32kB, 64kB]", pol, sz)
		}
	}
}

func TestNewBank(t *testing.T) {
	bank := NewBank(DefaultConfig(Owner, 16))
	if len(bank) != 16 {
		t.Fatalf("bank size = %d", len(bank))
	}
	// Banks must be independent: training one must not affect another.
	bank[0].TrainResponse(Response{Addr: 5, Responder: 11})
	if got := bank[1].Predict(q(5, 3, trace.GetShared)); got.Contains(11) {
		t.Error("predictor banks share state")
	}
}

func TestNewPanicsOnBadNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with 0 nodes should panic")
		}
	}()
	New(Config{Policy: Owner, Nodes: 0})
}

func TestFinitePredictorCapacityPressure(t *testing.T) {
	// A small finite Owner predictor forgets under capacity pressure.
	cfg := unboundedCfg(Owner)
	cfg.Entries = 16
	cfg.Ways = 4
	p := New(cfg)
	p.TrainResponse(Response{Addr: 0, Responder: 11})
	for a := trace.Addr(1); a < 1000; a++ {
		p.TrainResponse(Response{Addr: a, Responder: 2})
	}
	if got := p.Predict(q(0, 3, trace.GetShared)); got.Contains(11) {
		t.Errorf("entry should have been evicted under pressure: %v", got)
	}
}
