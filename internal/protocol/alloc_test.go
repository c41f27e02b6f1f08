package protocol

import (
	"testing"

	"destset/internal/coherence"
	"destset/internal/nodeset"
	"destset/internal/predictor"
	"destset/internal/trace"
)

// recordStream pre-generates an annotated miss stream for the allocation
// budgets, so the measured loop touches only Engine.Process.
func recordStream(n int) ([]trace.Record, []coherence.MissInfo) {
	sys := testSystem()
	recs := make([]trace.Record, 0, n)
	infos := make([]coherence.MissInfo, 0, n)
	for i := 0; len(recs) < n; i++ {
		node := nodeset.NodeID(i % 7)
		addr := trace.Addr((i * 17) % 193)
		access := coherence.Load
		kind := trace.GetShared
		if i%3 == 0 {
			access, kind = coherence.Store, trace.GetExclusive
		}
		mi, isMiss := sys.Access(node, addr, access)
		if !isMiss {
			continue
		}
		recs = append(recs, trace.Record{Addr: addr, Requester: uint8(node), Kind: kind})
		infos = append(infos, mi)
	}
	return recs, infos
}

// allocEngines are the engines the allocation budgets run.
func allocEngines() map[string]Engine {
	engines := map[string]Engine{
		"snooping":  NewSnooping(16),
		"directory": NewDirectory(),
	}
	for _, pol := range []predictor.Policy{
		predictor.Owner, predictor.BroadcastIfShared, predictor.Group,
		predictor.OwnerGroup, predictor.StickySpatial, predictor.Oracle,
	} {
		engines["multicast/"+pol.String()] =
			NewMulticast(predictor.NewBank(predictor.DefaultConfig(pol, 16)))
	}
	engines["predictive-directory"] =
		NewPredictiveDirectory(predictor.NewBank(predictor.DefaultConfig(predictor.Owner, 16)))
	return engines
}

// TestProcessAllocFree is the protocol-accounting allocation budget:
// Process runs once per miss on every engine of every sweep cell and
// must never allocate.
func TestProcessAllocFree(t *testing.T) {
	recs, infos := recordStream(4096)
	for name, eng := range allocEngines() {
		t.Run(name, func(t *testing.T) {
			i := 0
			if n := testing.AllocsPerRun(1000, func() {
				j := i % len(recs)
				eng.Process(recs[j], infos[j])
				i++
			}); n != 0 {
				t.Errorf("Process allocates %.1f/op, want 0", n)
			}
		})
	}
}

// TestProcessRangeAllocFree: ProcessRange, which replays every
// dataset-backed sweep cell, allocates nothing either, on the range
// methods and on the Process fallback, measured and in warm-up.
func TestProcessRangeAllocFree(t *testing.T) {
	cols := columnsOf(recordStream(4096))
	for name, eng := range allocEngines() {
		t.Run(name, func(t *testing.T) {
			var tot Totals
			lo := 0
			if n := testing.AllocsPerRun(100, func() {
				ProcessRange(eng, cols, lo, lo+64, nil)
				ProcessRange(eng, cols, lo+64, lo+128, &tot)
				lo = (lo + 128) % 4096
			}); n != 0 {
				t.Errorf("ProcessRange allocates %.1f/op, want 0", n)
			}
		})
	}
}
