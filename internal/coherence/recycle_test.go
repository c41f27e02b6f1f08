package coherence

import (
	"encoding/binary"
	"reflect"
	"slices"
	"testing"

	"destset/internal/cache"
	"destset/internal/freelist"
	"destset/internal/nodeset"
	"destset/internal/trace"
)

// writeback is one OnWriteback call.
type writeback struct {
	from nodeset.NodeID
	a    trace.Addr
}

// FuzzRecycledSystemMatchesNew runs a fuzzed access sequence on a
// System, recycles it and takes it back with NewSystem, then runs a
// second sequence on it and on a new System of the same configuration:
// every MissInfo and Peek (play), every writeback in order, the
// writeback count, the Snapshot and the block statistics must match,
// and the recycled System must come back without its writeback hook.
// Byte 0 picks the node count (2..16) and the MOESI and block-statistics
// switches, byte 1 the L2's ways (1..4) and sets (1..128), byte 2 how
// many ops run before the recycle; every further two bytes are one op.
func FuzzRecycledSystemMatchesNew(f *testing.F) {
	f.Add([]byte{0x42, 0x05, 3, 1, 0, 9, 16, 0x21, 0x10, 2, 0x10, 0x33, 0, 0xff, 0x1f})
	f.Add([]byte{0xce, 0x00, 40, 0x10, 0x10, 0x18, 0x10, 0x20, 0x10, 0x28, 0x10, 0x30, 0x10, 0x38, 0x10, 0x40, 0x10, 8, 0, 0x10, 0, 0x18, 0})
	f.Add([]byte{0x7f, 0x1f, 0, 0xaa, 0x55, 0x55, 0xaa})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		cfg := Config{
			Nodes:           2 + int(data[0]&0x3f)%15,
			L2:              cache.Config{SizeBytes: 64 << (data[1] >> 2 % 8) * (1 + int(data[1]&3)), Ways: 1 + int(data[1]&3), BlockBytes: 64},
			Exclusive:       data[0]&0x80 != 0,
			TrackBlockStats: data[0]&0x40 != 0,
		}
		ops := make([]uint16, (len(data)-3)/2)
		for i := range ops {
			ops[i] = binary.LittleEndian.Uint16(data[3+2*i:])
		}
		split := int(data[2]) % (len(ops) + 1)
		record := func(log *[]writeback) func(nodeset.NodeID, trace.Addr) {
			return func(from nodeset.NodeID, a trace.Addr) { *log = append(*log, writeback{from, a}) }
		}

		idle = freelist.List[Config, System]{}
		var first, rl, fl []writeback
		s := NewSystem(cfg)
		s.OnWriteback = record(&first)
		for _, op := range ops[:split] {
			play(s, op)
		}
		Recycle(s)
		r := NewSystem(cfg)
		if r != s {
			t.Fatal("NewSystem built a new System while a recycled one was listed")
		}
		if r.OnWriteback != nil {
			t.Fatal("a recycled System kept its writeback hook")
		}
		fresh := NewSystem(cfg)
		if fresh == r {
			t.Fatal("NewSystem handed out the recycled System twice")
		}
		r.OnWriteback, fresh.OnWriteback = record(&rl), record(&fl)
		for i, op := range ops[split:] {
			if a, b := play(r, op), play(fresh, op); a != b {
				t.Fatalf("op %d after the recycle: recycled %+v, new %+v", i, a, b)
			}
		}
		stats := func(s *System) (out []BlockStat) {
			s.ForEachTouchedBlock(func(b BlockStat) { out = append(out, b) })
			return out
		}
		switch {
		case !slices.Equal(rl, fl) || r.Writebacks() != fresh.Writebacks():
			t.Fatalf("writebacks: recycled %v (%d), new %v (%d)", rl, r.Writebacks(), fl, fresh.Writebacks())
		case !reflect.DeepEqual(r.Snapshot(), fresh.Snapshot()):
			t.Fatal("the recycled System's snapshot differs from a new one's")
		case !reflect.DeepEqual(stats(r), stats(fresh)):
			t.Fatal("the recycled System's block statistics differ from a new one's")
		case r.CheckInvariants() != nil:
			t.Fatal(r.CheckInvariants())
		}
	})
}
