package predictor

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// refTable is the finite table's former layout, kept as the reference
// the move-to-front Table must match: every line carries a tag, an LRU
// stamp from a per-table clock and a valid flag, a hit restamps its
// line, and an allocation takes an invalid line or else evicts the valid
// line with the oldest stamp.
type refTable[E any] struct {
	lines []refLine[E]
	ways  int
	mask  uint64
	clock uint64

	lookups, hits, allocs, evictions uint64
}

type refLine[E any] struct {
	tag   uint64
	lru   uint64
	valid bool
	entry E
}

func newRefTable[E any](entries, ways int) *refTable[E] {
	return &refTable[E]{lines: make([]refLine[E], entries), ways: ways, mask: uint64(entries/ways - 1)}
}

func (t *refTable[E]) set(key uint64) []refLine[E] {
	s := int(key&t.mask) * t.ways
	return t.lines[s : s+t.ways]
}

func (t *refTable[E]) Lookup(key uint64) *E {
	t.lookups++
	set := t.set(key)
	for i := range set {
		if set[i].valid && set[i].tag == key {
			t.hits++
			t.clock++
			set[i].lru = t.clock
			return &set[i].entry
		}
	}
	return nil
}

func (t *refTable[E]) LookupAlloc(key uint64) *E {
	if e := t.Lookup(key); e != nil {
		return e
	}
	t.allocs++
	set := t.set(key)
	victim := &set[0]
	for i := 1; i < len(set); i++ {
		l := &set[i]
		if !l.valid {
			victim = l
			break
		}
		if victim.valid && l.lru < victim.lru {
			victim = l
		}
	}
	if victim.valid {
		t.evictions++
	}
	var zero E
	t.clock++
	*victim = refLine[E]{tag: key, lru: t.clock, valid: true, entry: zero}
	return &victim.entry
}

func (t *refTable[E]) Len() int {
	n := 0
	for i := range t.lines {
		if t.lines[i].valid {
			n++
		}
	}
	return n
}

func (t *refTable[E]) Stats() (lookups, hits, allocs, evictions uint64) {
	return t.lookups, t.hits, t.allocs, t.evictions
}

// tableOp is one step of a table comparison: a Lookup, or a LookupAlloc
// when alloc is set, of key in table table of a bank; a found entry is
// then overwritten with val.
type tableOp struct {
	table int
	key   uint64
	alloc bool
	val   uint64
}

// compareTables drives a bank of tables sharing one set-major array and
// one reference table per bank member through ops. It compares every
// returned entry, every nil return, and each table's Len and Stats
// after every step.
func compareTables(entries, ways, tables int, ops []tableOp) error {
	bank := newTables[uint64](entries, ways, tables)
	refs := make([]*refTable[uint64], tables)
	for i := range refs {
		refs[i] = newRefTable[uint64](entries, ways)
	}
	for step, op := range ops {
		got, ref := &bank[op.table], refs[op.table]
		var g, w *uint64
		if op.alloc {
			g, w = got.LookupAlloc(op.key), ref.LookupAlloc(op.key)
		} else {
			g, w = got.Lookup(op.key), ref.Lookup(op.key)
		}
		switch {
		case (g == nil) != (w == nil):
			return fmt.Errorf("step %d %+v: returned %v, reference %v", step, op, g, w)
		case g != nil && *g != *w:
			return fmt.Errorf("step %d %+v: entry %d, reference %d", step, op, *g, *w)
		case g != nil:
			*g, *w = op.val, op.val
		}
		if got.Len() != ref.Len() {
			return fmt.Errorf("step %d %+v: Len %d, reference %d", step, op, got.Len(), ref.Len())
		}
		gl, gh, ga, ge := got.Stats()
		wl, wh, wa, we := ref.Stats()
		if gl != wl || gh != wh || ga != wa || ge != we {
			return fmt.Errorf("step %d %+v: Stats %d/%d/%d/%d, reference %d/%d/%d/%d",
				step, op, gl, gh, ga, ge, wl, wh, wa, we)
		}
	}
	return nil
}

// TestQuickTableMatchesReference: on random Lookup/LookupAlloc
// sequences the move-to-front table behaves exactly like the stamp-LRU
// reference, standalone and as a member of a set-major bank. Keys come
// from a space twice the table's capacity, so sequences mix hits,
// fills and evictions, and some keys differ only above bit 40.
func TestQuickTableMatchesReference(t *testing.T) {
	for _, g := range [][2]int{{1, 1}, {4, 1}, {8, 2}, {16, 4}, {64, 8}, {16, 16}} {
		entries, ways := g[0], g[1]
		for _, tables := range []int{1, 3} {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				ops := make([]tableOp, 4*entries+200)
				for i := range ops {
					ops[i] = tableOp{
						table: rng.Intn(tables),
						key:   uint64(rng.Intn(2*entries)) | uint64(rng.Intn(2))<<40,
						alloc: rng.Intn(3) > 0,
						val:   rng.Uint64(),
					}
				}
				if err := compareTables(entries, ways, tables, ops); err != nil {
					t.Logf("%dx%d, %d tables, seed %d: %v", entries, ways, tables, seed, err)
					return false
				}
				return true
			}
			if err := quick.Check(f, nil); err != nil {
				t.Errorf("%dx%d, %d tables: %v", entries, ways, tables, err)
			}
		}
	}
}

// FuzzTableMatchesReference runs compareTables on a geometry and an op
// sequence decoded from the input: byte 0 picks ways (1..16), byte 1
// the set count (1..32), byte 2 the bank size (1..4), and every further
// three bytes one op (table, Lookup or LookupAlloc, key bits above the
// set index, key byte; the value written is the op's position).
func FuzzTableMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		ways, sets, tables := 1+int(data[0]%16), 1<<(data[1]%6), 1+int(data[2]%4)
		var ops []tableOp
		for b := data[3:]; len(b) >= 3; b = b[3:] {
			ops = append(ops, tableOp{
				table: int(b[0]&3) % tables,
				alloc: b[0]&4 != 0,
				key:   uint64(b[1]) | uint64(b[0]>>3)<<40,
				val:   uint64(len(ops)),
			})
		}
		if err := compareTables(sets*ways, ways, tables, ops); err != nil {
			t.Fatalf("%d sets x %d ways, %d tables: %v", sets, ways, tables, err)
		}
	})
}
