package predictor

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"destset/internal/freelist"
	"destset/internal/nodeset"
	"destset/internal/trace"
)

// forget empties the free list, so that the next NewBank of any
// configuration builds a new bank.
func forget() {
	banks = freelist.List[freeKey, []Predictor]{}
}

// bankOp is one call on a bank: a whole miss through its step (kind 0)
// or one member's Predict (1), TrainRequest (2) or TrainResponse (3).
// node is the requester or the member called; other is the home, the
// external requester or the responder.
type bankOp struct {
	kind        uint8
	node, other nodeset.NodeID
	addr        trace.Addr
	pc          trace.PC
	store       bool
	needed      nodeset.Set
	fromMemory  bool
	none        bool
}

// apply runs op on bank and returns the prediction it made, or 0.
func (op bankOp) apply(bank []Predictor, step Step) nodeset.Set {
	kind := trace.GetShared
	if op.store {
		kind = trace.GetExclusive
	}
	switch op.kind {
	case 0:
		q := Query{Addr: op.addr, PC: op.pc, Requester: op.node, Home: op.other, Kind: kind}
		return step.Miss(q, op.needed, op.other, op.fromMemory, op.none)
	case 1:
		return bank[op.node].Predict(Query{Addr: op.addr, PC: op.pc, Requester: op.node, Home: op.other, Kind: kind})
	case 2:
		bank[op.node].TrainRequest(External{Addr: op.addr, PC: op.pc, Requester: op.other, Kind: kind})
	default:
		bank[op.node].TrainResponse(Response{Addr: op.addr, PC: op.pc, Responder: op.other, FromMemory: op.fromMemory})
	}
	return 0
}

// tableStats is what every member of a table policy's bank reports.
type tableStats interface {
	TableStats() (lookups, hits, allocs, evictions uint64, live int)
}

// sameTables compares every member's TableStats, which are its table's
// Stats and Len.
func sameTables(got, want []Predictor) error {
	for n := range want {
		gl, gh, ga, ge, glen := got[n].(tableStats).TableStats()
		wl, wh, wa, we, wlen := want[n].(tableStats).TableStats()
		if gl != wl || gh != wh || ga != wa || ge != we || glen != wlen {
			return fmt.Errorf("node %d: %d/%d/%d/%d len %d, new bank %d/%d/%d/%d len %d",
				n, gl, gh, ga, ge, glen, wl, wh, wa, we, wlen)
		}
	}
	return nil
}

// compareRecycled trains a bank of cfg on first, recycles it and takes
// it back with NewBank, which must return the same members; the taken
// bank must then match a new bank of cfg on second, in every prediction
// and in every member's Stats and Len after every op (every 50th op and
// the last on tables over 64 entries, whose Len walks every set).
func compareRecycled(cfg Config, first, second []bankOp) error {
	forget()
	ref, used := NewBank(cfg), NewBank(cfg)
	if ref[0] == used[0] {
		return fmt.Errorf("two live banks share members")
	}
	usedStep := StepOf(used)
	for _, op := range first {
		op.apply(used, usedStep)
	}
	Recycle(used)
	got := NewBank(cfg)
	for i := range got {
		if got[i] != used[i] {
			return fmt.Errorf("NewBank did not take back the recycled bank (member %d)", i)
		}
	}
	if err := sameTables(got, ref); err != nil {
		return fmt.Errorf("taken back: %v", err)
	}
	gotStep, refStep := StepOf(got), StepOf(ref)
	if gotStep == nil {
		return fmt.Errorf("the bank taken back has no step")
	}
	every := 1
	if cfg.Entries > 64 {
		every = 50
	}
	for i, op := range second {
		g, w := op.apply(got, gotStep), op.apply(ref, refStep)
		if g != w {
			return fmt.Errorf("op %d %+v: predicted %v, new bank %v", i, op, g, w)
		}
		if i%every != 0 && i != len(second)-1 {
			continue
		}
		if err := sameTables(got, ref); err != nil {
			return fmt.Errorf("after op %d %+v: %v", i, op, err)
		}
	}
	return nil
}

// randomOps returns n ops on a bank of nodes members over keys from a
// space of about twice entries lines.
func randomOps(rng *rand.Rand, n, nodes, entries int) []bankOp {
	ops := make([]bankOp, n)
	for i := range ops {
		block := rng.Intn(2*entries + 1)
		ops[i] = bankOp{
			kind:       uint8(rng.Intn(4)),
			node:       nodeset.NodeID(rng.Intn(nodes)),
			other:      nodeset.NodeID(rng.Intn(nodes)),
			addr:       trace.Addr(block) * trace.BlockBytes,
			pc:         trace.PC(0x400 + block%13),
			store:      rng.Intn(2) == 0,
			needed:     nodeset.Set(rng.Uint64()) & nodeset.All(nodes),
			fromMemory: rng.Intn(3) == 0,
			none:       rng.Intn(8) == 0,
		}
	}
	return ops
}

// TestRecycledBankMatchesNew: a bank trained, recycled and taken back
// by NewBank predicts, trains and counts exactly as a new bank, on every
// finite table policy, at the standout and at small evicting geometries,
// under block, macroblock and PC indexing, with a short Group rollover
// too.
func TestRecycledBankMatchesNew(t *testing.T) {
	defer forget()
	rng := rand.New(rand.NewSource(31))
	indexings := []Indexing{{Mode: ByBlock}, {Mode: ByBlock, MacroblockBytes: 1024}, {Mode: ByPC}}
	for _, pol := range []Policy{Owner, BroadcastIfShared, Group, OwnerGroup} {
		for _, g := range [][2]int{{8192, 4}, {64, 4}, {16, 1}, {32, 8}} {
			for _, ix := range indexings {
				for _, nodes := range []int{16, 3} {
					cfg := Config{Policy: pol, Nodes: nodes, Entries: g[0], Ways: g[1], Indexing: ix}
					if pol == Group || pol == OwnerGroup {
						cfg.GroupRollover = 1 + rng.Intn(6)
					}
					first := randomOps(rng, 1500, nodes, min(g[0], 256))
					second := randomOps(rng, 1500, nodes, min(g[0], 256))
					if err := compareRecycled(cfg, first, second); err != nil {
						t.Errorf("%s, %d nodes: %v", cfg.Name(), nodes, err)
					}
				}
			}
		}
	}
}

// TestRecycleTakesOnlyWholeFiniteBanks: Recycle ignores every bank that
// is not exactly one NewBank call's finite table bank, and a bank
// recycled twice is handed out once.
func TestRecycleTakesOnlyWholeFiniteBanks(t *testing.T) {
	defer forget()
	for _, pol := range []Policy{Owner, BroadcastIfShared, Group, OwnerGroup} {
		cfg := DefaultConfig(pol, 16)
		cfg.Entries = 64
		bank := NewBank(cfg)
		swapped := NewBank(cfg)
		swapped[2], swapped[3] = swapped[3], swapped[2]
		hidden := NewBank(cfg)
		hidden[0] = wrapped{hidden[0]}
		unbounded := cfg
		unbounded.Entries = 0
		for name, preds := range map[string][]Predictor{
			"members swapped":    swapped,
			"a member hidden":    hidden,
			"part of a bank":     bank[:8],
			"an unbounded table": NewBank(unbounded),
		} {
			forget()
			Recycle(preds)
			if banks.Len() != 0 {
				t.Errorf("%v: %s was recycled", pol, name)
			}
		}
		forget()
		Recycle(bank)
		Recycle(bank)
		a, b := NewBank(cfg), NewBank(cfg)
		if a[0] != bank[0] || b[0] == bank[0] {
			t.Errorf("%v: a bank recycled twice was taken %v and %v, want once", pol, a[0] == bank[0], b[0] == bank[0])
		}
	}
	forget()
	for _, pol := range []Policy{StickySpatial, Minimal, Broadcast, Oracle} {
		Recycle(NewBank(DefaultConfig(pol, 16)))
	}
	Recycle(nil)
	if n := banks.Len(); n != 0 {
		t.Errorf("free list holds %d banks after recycling banks without finite tables", n)
	}
}

// TestRecycleConcurrent: goroutines that build, train and recycle banks
// of one configuration at once never hold the same bank together, and
// each bank they get starts empty. Run it under -race.
func TestRecycleConcurrent(t *testing.T) {
	defer forget()
	cfg := DefaultConfig(Group, 4)
	cfg.Entries = 64
	var held sync.Map
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				bank := NewBank(cfg)
				if _, dup := held.LoadOrStore(bank[0], g); dup {
					t.Error("two goroutines hold one bank")
					return
				}
				for n := range bank {
					if l, _, _, _, live := bank[n].(tableStats).TableStats(); l != 0 || live != 0 {
						t.Errorf("a bank taken over has %d lookups and %d live entries", l, live)
						return
					}
				}
				step := StepOf(bank)
				for _, op := range randomOps(rng, 20, cfg.Nodes, cfg.Entries) {
					op.apply(bank, step)
				}
				held.Delete(bank[0])
				Recycle(bank)
			}
		}(g)
	}
	wg.Wait()
}

// FuzzRecycledBankMatchesNew runs compareRecycled on a configuration
// and two op streams decoded from the input: byte 0 picks the policy and
// the indexing (block, 1024-byte macroblock or PC), byte 1 the ways
// (1..8) and the set count (1..32), byte 2 the node count (1..16) and
// the Group rollover, byte 3 how many ops train the bank before it is
// recycled. Every further four bytes are one op: its kind and flags, the
// member and other node, the key byte, and the needed set's low byte
// shifted by the key byte.
func FuzzRecycledBankMatchesNew(f *testing.F) {
	f.Add([]byte{0x02, 0x22, 0x3f, 0x04, 0x00, 0x12, 0x05, 0xff, 0x11, 0x21, 0x05, 0x0f, 0x02, 0x30, 0x06, 0x03, 0x03, 0x03, 0x05, 0x01})
	defer forget()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		pols := []Policy{Owner, BroadcastIfShared, Group, OwnerGroup}
		indexings := []Indexing{{Mode: ByBlock}, {Mode: ByBlock, MacroblockBytes: 1024}, {Mode: ByPC}}
		ways, sets := 1+int(data[1]&7), 1<<(data[1]>>3%6)
		nodes := 1 + int(data[2]&15)
		cfg := Config{
			Policy:        pols[data[0]&3],
			Nodes:         nodes,
			Entries:       ways * sets,
			Ways:          ways,
			GroupRollover: int(data[2] >> 4),
			Indexing:      indexings[int(data[0]>>2)%3],
		}
		var ops []bankOp
		for b := data[4:]; len(b) >= 4; b = b[4:] {
			ops = append(ops, bankOp{
				kind:       b[0] & 3,
				store:      b[0]&4 != 0,
				fromMemory: b[0]&8 != 0,
				none:       b[0]&16 != 0,
				node:       nodeset.NodeID(int(b[1]&15) % nodes),
				other:      nodeset.NodeID(int(b[1]>>4) % nodes),
				addr:       trace.Addr(b[2])*trace.BlockBytes | trace.Addr(b[0]>>5)<<20,
				pc:         trace.PC(0x400 + int(b[2])%13),
				needed:     nodeset.Set(uint64(b[3])<<(b[2]%16)) & nodeset.All(nodes),
			})
		}
		split := min(int(data[3]), len(ops))
		if err := compareRecycled(cfg, ops[:split], ops[split:]); err != nil {
			t.Fatalf("%s, %d nodes: %v", cfg.Name(), nodes, err)
		}
	})
}
