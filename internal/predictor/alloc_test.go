package predictor

import (
	"testing"

	"destset/internal/memtest"
	"destset/internal/nodeset"
	"destset/internal/trace"
)

// Allocation budgets: the predictor hot paths run once (Predict) or up
// to nodes-1 times (TrainRequest) per simulated miss, across millions of
// misses per sweep. They must not allocate on finite tables — including
// on table misses, whose entries live inline in the preallocated ways.

func allocPolicies() []Policy {
	return []Policy{Owner, BroadcastIfShared, Group, OwnerGroup, StickySpatial}
}

func TestPredictAllocFree(t *testing.T) {
	for _, pol := range allocPolicies() {
		t.Run(pol.String(), func(t *testing.T) {
			p := New(DefaultConfig(pol, 16))
			for i := 0; i < 2000; i++ {
				p.TrainRequest(External{
					Addr:      trace.Addr(i * 7 % 65536),
					Requester: nodeset.NodeID(i % 16),
					Kind:      trace.GetExclusive,
				})
			}
			q := Query{Requester: 3, Home: 10, Kind: trace.GetExclusive}
			i := 0
			if n := testing.AllocsPerRun(500, func() {
				q.Addr = trace.Addr(i % 65536)
				_ = p.Predict(q)
				i++
			}); n != 0 {
				t.Errorf("Predict allocates %.1f/op, want 0", n)
			}
		})
	}
}

func TestTrainRequestAllocFree(t *testing.T) {
	for _, pol := range allocPolicies() {
		t.Run(pol.String(), func(t *testing.T) {
			p := New(DefaultConfig(pol, 16))
			i := 0
			if n := testing.AllocsPerRun(500, func() {
				// A stride wider than the table forces steady eviction
				// traffic, so allocation-free covers the miss path too.
				p.TrainRequest(External{
					Addr:      trace.Addr(i * 131 % (1 << 20)),
					Requester: nodeset.NodeID(i % 16),
					Kind:      trace.GetExclusive,
				})
				i++
			}); n != 0 {
				t.Errorf("TrainRequest allocates %.1f/op, want 0", n)
			}
		})
	}
}

func TestTrainResponseAndRetryAllocFree(t *testing.T) {
	for _, pol := range allocPolicies() {
		t.Run(pol.String(), func(t *testing.T) {
			p := New(DefaultConfig(pol, 16))
			i := 0
			if n := testing.AllocsPerRun(500, func() {
				p.TrainResponse(Response{Addr: trace.Addr(i % 65536), Responder: nodeset.NodeID(i % 16)})
				p.TrainRetry(Retry{Addr: trace.Addr(i % 65536), Needed: nodeset.Of(1, 2)})
				i++
			}); n != 0 {
				t.Errorf("TrainResponse+TrainRetry allocate %.1f/op, want 0", n)
			}
		})
	}
}

// TestNewBankBytes bounds what a 16-node bank of the paper's standout
// configuration (8192 entries, 4 ways) allocates: one set-major array
// of {tag, entry} lines plus a 4-byte fill count per set. Lines are 16
// bytes for Owner and BroadcastIfShared, 32 for Group and 40 for
// OwnerGroup; StickySpatial keeps 17 bytes per entry in three arrays.
// Lines that also carry an LRU stamp and a valid flag are 8 to 16 bytes
// larger and fail every table-backed bound.
func TestNewBankBytes(t *testing.T) {
	const (
		nodes   = 16
		entries = 8192
		fill    = nodes * entries / 4 * 4
		slack   = 8 << 10
	)
	bounds := map[Policy]float64{
		Owner:             nodes*entries*16 + fill + slack,
		BroadcastIfShared: nodes*entries*16 + fill + slack,
		Group:             nodes*entries*32 + fill + slack,
		OwnerGroup:        nodes*entries*40 + fill + slack,
		StickySpatial:     nodes*entries*17 + slack,
		Minimal:           slack,
		Broadcast:         slack,
		Oracle:            slack,
	}
	for _, pol := range builtinPolicies {
		cfg := DefaultConfig(pol, nodes)
		bytes, _ := memtest.PerRun(3, func() { bankSink = NewBank(cfg) })
		if bytes > bounds[pol] {
			t.Errorf("%v: a %d-node bank allocates %.0f bytes, want at most %.0f", pol, nodes, bytes, bounds[pol])
		}
	}
}

var bankSink []Predictor
