package protocol

import (
	"fmt"
	"math/rand"
	"testing"

	"destset/internal/coherence"
	"destset/internal/nodeset"
	"destset/internal/predictor"
	"destset/internal/trace"
)

// hidden wraps a bank member so that its concrete type is out of sight:
// a bank of them takes Multicast's per-node path, the reference the bank
// step must match.
type hidden struct{ predictor.Predictor }

// tableStats is what every member of a table policy's bank reports.
type tableStats interface {
	TableStats() (lookups, hits, allocs, evictions uint64, live int)
}

// stepAccess is one load or store by a node.
type stepAccess struct {
	node  nodeset.NodeID
	addr  trace.Addr
	store bool
}

// stepMisses drives accesses through a 16-node oracle with 64-block
// caches and returns the misses, each with a PC that repeats across
// addresses so that PC-indexed tables share keys.
func stepMisses(accesses []stepAccess) ([]trace.Record, []coherence.MissInfo) {
	sys := testSystem()
	var recs []trace.Record
	var infos []coherence.MissInfo
	for i, a := range accesses {
		access, kind := coherence.Load, trace.GetShared
		if a.store {
			access, kind = coherence.Store, trace.GetExclusive
		}
		mi, isMiss := sys.Access(a.node, a.addr, access)
		if !isMiss {
			continue
		}
		pc := trace.PC(0x400 + (uint64(a.addr)*7+uint64(i%3))%29)
		recs = append(recs, trace.Record{Addr: a.addr, PC: pc, Requester: uint8(a.node), Kind: kind})
		infos = append(infos, mi)
	}
	return recs, infos
}

// compareStep runs one miss stream through multicast engines over
// NewBank(cfg), which must take the bank step, and through a reference
// engine over a bank of the same configuration whose members are hidden,
// which takes the per-node path and Process per miss. One step engine
// takes Process per miss: every Result and the MulticastStats must agree
// with the reference's after every miss, and each member table's Stats
// and Len every 64 misses and at the end. One more step engine per chunk
// length takes the misses through the range method, that many at a
// time, the first chunk as warm-up: at the end of every chunk its Totals
// must equal the reference's Results added up since its warm-up, and its
// MulticastStats and member tables must equal the reference's.
func compareStep(cfg predictor.Config, recs []trace.Record, infos []coherence.MissInfo, chunks ...int) error {
	stepBank, refBank := predictor.NewBank(cfg), predictor.NewBank(cfg)
	hiddenBank := make([]predictor.Predictor, len(refBank))
	for i, p := range refBank {
		hiddenBank[i] = hidden{p}
	}
	eng, ref := NewMulticast(stepBank), NewMulticast(hiddenBank)
	if eng.step == nil {
		return fmt.Errorf("a NewBank bank does not take the bank step")
	}
	if ref.step != nil {
		return fmt.Errorf("a bank of hidden members takes the bank step")
	}
	tables := func(i int, path string, bank []predictor.Predictor) error {
		for n := range bank {
			gl, gh, ga, ge, glen := bank[n].(tableStats).TableStats()
			wl, wh, wa, we, wlen := refBank[n].(tableStats).TableStats()
			if gl != wl || gh != wh || ga != wa || ge != we || glen != wlen {
				return fmt.Errorf("after miss %d, node %d's table: %s %d/%d/%d/%d len %d, per-node %d/%d/%d/%d len %d",
					i, n, path, gl, gh, ga, ge, glen, wl, wh, wa, we, wlen)
			}
		}
		return nil
	}
	// ranged is one range-path engine and its progress.
	type ranged struct {
		chunk, lo int
		bank      []predictor.Predictor
		eng       *Multicast
		got, want Totals
	}
	rs := make([]*ranged, len(chunks))
	for k, chunk := range chunks {
		bank := predictor.NewBank(cfg)
		rs[k] = &ranged{chunk: chunk, bank: bank, eng: NewMulticast(bank)}
	}
	cols := columnsOf(recs, infos)
	for i := range recs {
		r, w := eng.Process(recs[i], infos[i]), ref.Process(recs[i], infos[i])
		if r != w {
			return fmt.Errorf("miss %d %+v: step %+v, per-node %+v", i, recs[i], r, w)
		}
		if eng.Stats() != ref.Stats() {
			return fmt.Errorf("after miss %d: step stats %+v, per-node %+v", i, eng.Stats(), ref.Stats())
		}
		if i%64 == 0 {
			if err := tables(i, "step", stepBank); err != nil {
				return err
			}
		}
		for _, g := range rs {
			g.want.Add(w)
			hi := i + 1
			if hi-g.lo != g.chunk && hi != len(recs) {
				continue
			}
			if g.lo == 0 {
				g.eng.processRange(cols, g.lo, hi, nil)
				g.want = Totals{}
			} else {
				g.eng.processRange(cols, g.lo, hi, &g.got)
			}
			if g.got != g.want {
				return fmt.Errorf("chunks of %d, after misses [%d, %d): range totals %+v, per-node %+v", g.chunk, g.lo, hi, g.got, g.want)
			}
			if g.eng.Stats() != ref.Stats() {
				return fmt.Errorf("chunks of %d, after misses [%d, %d): range stats %+v, per-node %+v", g.chunk, g.lo, hi, g.eng.Stats(), ref.Stats())
			}
			if err := tables(i, fmt.Sprintf("range in chunks of %d", g.chunk), g.bank); err != nil {
				return err
			}
			g.lo = hi
		}
	}
	return tables(len(recs), "step", stepBank)
}

// stepConfigs are the configurations TestBankStepMatchesPerNode runs for
// each table policy: the paper's standout one, a small 2-way table that
// evicts, PC indexing, 256 B macroblocks, and Group rollover limits of 1
// and 256.
func stepConfigs(pol predictor.Policy) map[string]predictor.Config {
	cfgs := map[string]predictor.Config{}
	base := predictor.DefaultConfig(pol, 16)
	cfgs["standout"] = base
	small := base
	small.Entries, small.Ways = 16, 2
	cfgs["16x2"] = small
	pc := base
	pc.Indexing = predictor.Indexing{Mode: predictor.ByPC}
	cfgs["pc"] = pc
	mb := base
	mb.Indexing.MacroblockBytes = 256
	cfgs["256B"] = mb
	for _, limit := range []int{1, 256} {
		r := small
		r.GroupRollover = limit
		cfgs[fmt.Sprintf("16x2/rollover%d", limit)] = r
	}
	return cfgs
}

// stepStream is the miss stream TestBankStepMatchesPerNode runs: 7,262
// misses with memory responses, cache-to-cache transfers, upgrades,
// retries and table evictions. Three accesses in four go to 24 blocks
// that every node shares; the rest go to 512 blocks 17 apart, with every
// home and hundreds of keys at 1024 B macroblocks.
func stepStream() ([]trace.Record, []coherence.MissInfo) {
	rng := rand.New(rand.NewSource(1))
	var accesses []stepAccess
	for i := 0; i < 8000; i++ {
		a := stepAccess{node: nodeset.NodeID(rng.Intn(16)), store: rng.Intn(3) == 0}
		if i%4 == 3 {
			a.addr = trace.Addr(1024 + 17*rng.Intn(512))
		} else {
			a.addr = trace.Addr(rng.Intn(24))
		}
		accesses = append(accesses, a)
	}
	return stepMisses(accesses)
}

// TestBankStepMatchesPerNode: the bank step trains exactly like one
// Predict, TrainRequest and TrainResponse call per node, per miss and
// over column ranges of 61 and 2048 misses, on stepStream.
func TestBankStepMatchesPerNode(t *testing.T) {
	recs, infos := stepStream()
	for _, pol := range []predictor.Policy{
		predictor.Owner, predictor.BroadcastIfShared, predictor.Group, predictor.OwnerGroup,
	} {
		for name, cfg := range stepConfigs(pol) {
			if err := compareStep(cfg, recs, infos, 61, 2048); err != nil {
				t.Errorf("%v %s: %v", pol, name, err)
			}
		}
	}
}

// FuzzBankStepMatchesPerNode runs compareStep on a configuration, an
// access sequence and a chunk length decoded from the input. In data,
// byte 0 picks the policy (low two bits) and the indexing (block, 256 B
// macroblock or PC), byte 1 the ways (1..4) and the set count (1..16),
// byte 2 the Group rollover limit (0 keeps the default), and every
// further two bytes one access (node in the low four bits, a store in
// bit 4, address bits above, and the address's low byte). The range
// path takes the misses in chunks of chunk+1.
func FuzzBankStepMatchesPerNode(f *testing.F) {
	policies := []predictor.Policy{
		predictor.Owner, predictor.BroadcastIfShared, predictor.Group, predictor.OwnerGroup,
	}
	f.Fuzz(func(t *testing.T, data []byte, chunk uint16) {
		if len(data) < 3 {
			return
		}
		ways, sets := 1+int(data[1]&3), 1<<(data[1]>>2%5)
		cfg := predictor.Config{
			Policy:        policies[data[0]&3],
			Nodes:         16,
			Entries:       ways * sets,
			Ways:          ways,
			GroupRollover: int(data[2]),
			Indexing:      predictor.Indexing{MacroblockBytes: 64},
		}
		switch data[0] >> 2 % 3 {
		case 1:
			cfg.Indexing.MacroblockBytes = 256
		case 2:
			cfg.Indexing.Mode = predictor.ByPC
		}
		var accesses []stepAccess
		for b := data[3:]; len(b) >= 2; b = b[2:] {
			accesses = append(accesses, stepAccess{
				node:  nodeset.NodeID(b[0] & 15),
				store: b[0]&16 != 0,
				addr:  trace.Addr(b[1]) | trace.Addr(b[0]>>5)<<8,
			})
		}
		recs, infos := stepMisses(accesses)
		if err := compareStep(cfg, recs, infos, int(chunk)+1); err != nil {
			t.Fatalf("%s: %v", cfg.Name(), err)
		}
	})
}
