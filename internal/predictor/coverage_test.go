package predictor

import (
	"strings"
	"testing"

	"destset/internal/nodeset"
	"destset/internal/trace"
)

func TestNamesForAllPolicies(t *testing.T) {
	policies := []Policy{Owner, BroadcastIfShared, Group, OwnerGroup, StickySpatial, Minimal, Broadcast, Oracle}
	seen := map[string]bool{}
	for _, pol := range policies {
		p := New(unboundedCfg(pol))
		name := p.Name()
		if name == "" || seen[name] {
			t.Errorf("%v: bad or duplicate Name %q", pol, name)
		}
		seen[name] = true
	}
	if got := Policy(99).String(); got != "Policy(99)" {
		t.Errorf("unknown Policy.String() = %q", got)
	}
}

func TestTrainRetryIsNoOpForTable3Policies(t *testing.T) {
	// Table 3 policies do not learn from retries (only StickySpatial
	// does); a retry must not change their predictions.
	for _, pol := range []Policy{Owner, BroadcastIfShared, Group, OwnerGroup, Minimal, Broadcast} {
		p := New(unboundedCfg(pol))
		before := p.Predict(q(5, 3, trace.GetExclusive))
		p.TrainRetry(Retry{Addr: 5, Needed: nodeset.Of(1, 2, 9)})
		after := p.Predict(q(5, 3, trace.GetExclusive))
		if before != after {
			t.Errorf("%v: retry changed prediction %v -> %v", pol, before, after)
		}
	}
}

func TestReferencePoliciesIgnoreAllTraining(t *testing.T) {
	for _, pol := range []Policy{Minimal, Broadcast, Oracle} {
		p := New(unboundedCfg(pol))
		p.TrainResponse(Response{Addr: 5, Responder: 9})
		p.TrainRequest(External{Addr: 5, Requester: 9, Kind: trace.GetExclusive})
		p.TrainRetry(Retry{Addr: 5, Needed: nodeset.Of(9)})
		got := p.Predict(q(5, 3, trace.GetShared))
		switch pol {
		case Minimal, Oracle:
			if got != nodeset.Of(3, 7) {
				t.Errorf("%v: training leaked into prediction %v", pol, got)
			}
		case Broadcast:
			if got != nodeset.All(testNodes) {
				t.Errorf("Broadcast: prediction %v", got)
			}
		}
	}
}

func TestOwnerGroupMemoryResponseClears(t *testing.T) {
	p := New(unboundedCfg(OwnerGroup))
	p.TrainResponse(Response{Addr: 5, Responder: 11})
	if got := p.Predict(q(5, 3, trace.GetShared)); !got.Contains(11) {
		t.Fatalf("owner half not trained: %v", got)
	}
	p.TrainResponse(Response{Addr: 5, FromMemory: true})
	if got := p.Predict(q(5, 3, trace.GetShared)); got.Contains(11) {
		t.Errorf("memory response should clear the owner half: %v", got)
	}
	// A memory response on an absent entry must not allocate.
	p2 := New(unboundedCfg(OwnerGroup)).(*ownerGroupPredictor)
	p2.TrainResponse(Response{Addr: 99, FromMemory: true})
	if p2.table.Len() != 0 {
		t.Error("memory response allocated an OwnerGroup entry")
	}
}

func TestOwnerGroupResponseTrainsBothHalves(t *testing.T) {
	p := New(unboundedCfg(OwnerGroup))
	p.TrainResponse(Response{Addr: 5, Responder: 11})
	p.TrainResponse(Response{Addr: 5, Responder: 11})
	read := p.Predict(q(5, 3, trace.GetShared))
	write := p.Predict(q(5, 3, trace.GetExclusive))
	if !read.Contains(11) {
		t.Errorf("read prediction %v missing responder", read)
	}
	if !write.Contains(11) {
		t.Errorf("write prediction %v missing responder (group half)", write)
	}
}

func TestEntryBytesAllPolicies(t *testing.T) {
	want := map[Policy]int{
		Owner:             4,
		BroadcastIfShared: 4,
		Group:             8,
		StickySpatial:     8,
		OwnerGroup:        12,
		Minimal:           0,
		Broadcast:         0,
		Oracle:            0,
	}
	for pol, w := range want {
		cfg := Config{Policy: pol, Nodes: 16, Entries: 1024}
		if got := cfg.EntryBytes(); got != w {
			t.Errorf("%v EntryBytes = %d, want %d", pol, got, w)
		}
	}
}

func TestGroupRolloverConfigurable(t *testing.T) {
	fast := unboundedCfg(Group)
	fast.GroupRollover = 2
	p := New(fast)
	// Saturate node 2, then two events from node 9 (each ticking the
	// 2-limit rollover) decay node 2 out quickly.
	for i := 0; i < 4; i++ {
		p.TrainRequest(External{Addr: 5, Requester: 2, Kind: trace.GetExclusive})
	}
	for i := 0; i < 8; i++ {
		p.TrainRequest(External{Addr: 5, Requester: 9, Kind: trace.GetExclusive})
	}
	got := p.Predict(q(5, 3, trace.GetExclusive))
	if got.Contains(2) {
		t.Errorf("fast rollover should have decayed node 2: %v", got)
	}
}

// TestGroupRolloverBeyondEightBits: limits past an 8-bit counter's
// range still train down. A saturated node leaves the predicted set
// after a few limits' worth of requests from another node, and not
// before one limit has passed.
func TestGroupRolloverBeyondEightBits(t *testing.T) {
	for _, limit := range []int{255, 256, 300, 1024} {
		cfg := unboundedCfg(Group)
		cfg.GroupRollover = limit
		p := New(cfg)
		for i := 0; i < 4; i++ {
			p.TrainRequest(External{Addr: 5, Requester: 2, Kind: trace.GetExclusive})
		}
		for i := 0; i < limit-8; i++ {
			p.TrainRequest(External{Addr: 5, Requester: 9, Kind: trace.GetExclusive})
		}
		if got := p.Predict(q(5, 3, trace.GetExclusive)); !got.Contains(2) {
			t.Errorf("limit %d: node 2 decayed before one limit passed: %v", limit, got)
		}
		for i := 0; i < 2*limit; i++ {
			p.TrainRequest(External{Addr: 5, Requester: 9, Kind: trace.GetExclusive})
		}
		if got := p.Predict(q(5, 3, trace.GetExclusive)); got.Contains(2) || !got.Contains(9) {
			t.Errorf("limit %d: after %d requests from node 9, prediction %v (want 9 and not 2)", limit, 3*limit-8, got)
		}
	}
}

func TestStickySpatialSharedRequestsTrain(t *testing.T) {
	// Unlike the Table 3 policies, StickySpatial aggregates everything it
	// observes, including GETS requesters.
	cfg := unboundedCfg(StickySpatial)
	cfg.Entries = 64
	p := New(cfg)
	p.TrainRequest(External{Addr: 10, Requester: 6, Kind: trace.GetShared})
	if got := p.Predict(q(10, 3, trace.GetExclusive)); !got.Contains(6) {
		t.Errorf("sticky predictor should learn readers: %v", got)
	}
}

func TestStickySpatialPanicsOnNonPowerOfTwo(t *testing.T) {
	cfg := unboundedCfg(StickySpatial)
	cfg.Entries = 100
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two StickySpatial should panic")
		}
	}()
	New(cfg)
}

func TestNewPanicsOnUnknownPolicy(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown policy should panic")
		}
	}()
	New(Config{Policy: Policy(42), Nodes: 16})
}

// TestValidateMatchesNew: Validate accepts exactly the configurations
// New builds without panicking.
func TestValidateMatchesNew(t *testing.T) {
	var cfgs []Config
	for _, pol := range append(builtinPolicies, Policy(42)) {
		for _, g := range [][2]int{{8192, 4}, {0, 0}, {0, 3}, {64, 0}, {1000, 4}, {1002, 4}, {-8, 4}, {100, 1}, {12, 3}} {
			for _, nodes := range []int{16, 0, 65} {
				cfgs = append(cfgs, Config{Policy: pol, Nodes: nodes, Entries: g[0], Ways: g[1]})
			}
		}
		cfgs = append(cfgs,
			Config{Policy: pol, Nodes: 16, Entries: 64, GroupRollover: maxRolloverLimit},
			Config{Policy: pol, Nodes: 16, Entries: 64, GroupRollover: maxRolloverLimit + 1})
		for _, ix := range []Indexing{{Mode: ByPC, MacroblockBytes: 256}, {MacroblockBytes: 192}, {MacroblockBytes: 100}, {MacroblockBytes: -64}, {Mode: 9}} {
			cfgs = append(cfgs, Config{Policy: pol, Nodes: 16, Entries: 64, Indexing: ix})
		}
	}
	for _, cfg := range cfgs {
		err := cfg.Validate()
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			New(cfg)
			return false
		}()
		if panicked != (err != nil) || (cfg.GroupRollover > maxRolloverLimit) != (err != nil && strings.Contains(err.Error(), "rollover")) {
			t.Errorf("%+v: Validate() = %v, New panics: %v", cfg, err, panicked)
		}
	}
}
