package predictor

import "fmt"

// Table is a tagged predictor table with two modes: a finite set-
// associative LRU table (Entries > 0) or an unbounded map (Entries == 0,
// the paper's "unbounded predictors" used for limit studies in §4.4).
//
// A finite set keeps its lines in recency order, most recent first. A
// hit moves its line to the front; an allocation shifts the set down one
// line and takes the front; a full set evicts its last line. That is
// exactly LRU replacement, with no stamps, valid flags or victim scan: a
// line is only a tag and an entry, and a fill count per set says how
// many of its lines are live. Lines never become invalid, so the live
// lines are always the set's first ones.
//
// The tables of one bank (NewBank) share one backing array laid out
// set-major: set s of every node's table sits next to set s of the
// others, so the lookups one request makes in up to nodes-1 tables land
// in adjacent memory. A standalone table (NewTable, New) is a bank of
// one.
//
// The entry type E is policy-specific; its zero value must mean "freshly
// allocated, knows nothing". An entry pointer is valid until the next
// Lookup or LookupAlloc on the same table, which may move the line.
type Table[E any] struct {
	// finite mode: set s of this table is group g = s*tables+index of
	// the bank, with lines [g*ways, (g+1)*ways) and fill count fill[g]
	lines  []tableLine[E]
	fill   []uint32
	ways   int
	mask   uint64
	tables int
	index  int
	// unbounded mode
	unbounded map[uint64]*E
	// statistics
	lookups, hits, allocs, evictions uint64
}

type tableLine[E any] struct {
	tag   uint64
	entry E
}

// NewTable returns a table with the given capacity (0 = unbounded) and
// associativity. Finite capacities must be a power of two and a multiple
// of ways.
func NewTable[E any](entries, ways int) *Table[E] {
	return &newTables[E](entries, ways, 1)[0]
}

// newTables returns n tables of one geometry that share one set-major
// backing array (see Table).
func newTables[E any](entries, ways, n int) []Table[E] {
	tables := make([]Table[E], n)
	if entries == 0 {
		for i := range tables {
			tables[i].unbounded = make(map[uint64]*E)
		}
		return tables
	}
	sets, ways, err := geometry(entries, ways)
	if err != nil {
		panic(err.Error())
	}
	lines := make([]tableLine[E], n*entries)
	fill := make([]uint32, n*sets)
	for i := range tables {
		tables[i] = Table[E]{lines: lines, fill: fill, ways: ways, mask: uint64(sets - 1), tables: n, index: i}
	}
	return tables
}

// geometry returns the set count and associativity of a finite table,
// with ways <= 0 meaning 4, or why there is no such table.
func geometry(entries, ways int) (int, int, error) {
	if ways <= 0 {
		ways = 4
	}
	if entries < 0 {
		return 0, 0, fmt.Errorf("predictor: negative entries %d", entries)
	}
	if entries%ways != 0 {
		return 0, 0, fmt.Errorf("predictor: entries %d not a multiple of ways %d", entries, ways)
	}
	sets := entries / ways
	if sets&(sets-1) != 0 {
		return 0, 0, fmt.Errorf("predictor: set count %d is not a power of two", sets)
	}
	return sets, ways, nil
}

// Lookup returns the entry for key, or nil if absent. It never allocates;
// policies use it for training events that must not allocate (e.g.
// responses from memory, §3.1).
func (t *Table[E]) Lookup(key uint64) *E {
	if t.unbounded == nil {
		return t.lookupIn(t.group(key), key)
	}
	t.lookups++
	e := t.unbounded[key]
	if e != nil {
		t.hits++
	}
	return e
}

// LookupAlloc returns the entry for key, allocating a zero entry (and
// evicting the set's LRU entry if necessary) when absent.
func (t *Table[E]) LookupAlloc(key uint64) *E {
	if t.unbounded == nil {
		return t.allocIn(t.group(key), key)
	}
	if e := t.Lookup(key); e != nil {
		return e
	}
	t.allocs++
	e := new(E)
	t.unbounded[key] = e
	return e
}

// response returns the entry of t that a data response trains: an
// existing one only when memory responded, since the minimal set then
// sufficed and nothing is allocated (§3.1), else one allocated if
// absent. It is nil when there is no such entry.
func (t *Table[E]) response(key uint64, fromMemory bool) *E {
	if fromMemory {
		return t.Lookup(key)
	}
	return t.LookupAlloc(key)
}

// group returns the group of the backing array that holds key's set of
// this finite table.
func (t *Table[E]) group(key uint64) int {
	return int(key&t.mask)*t.tables + t.index
}

// lookupIn is Lookup for a finite table, given the group that holds
// key's set. A bank step, which finds the group of every member from
// one key, calls it directly.
func (t *Table[E]) lookupIn(g int, key uint64) *E {
	t.lookups++
	return t.hitIn(g, key)
}

// allocIn is LookupAlloc for a finite table, given the group that holds
// key's set.
func (t *Table[E]) allocIn(g int, key uint64) *E {
	t.lookups++
	if e := t.hitIn(g, key); e != nil {
		return e
	}
	t.allocs++
	set := t.lines[g*t.ways : (g+1)*t.ways]
	n := int(t.fill[g])
	if n == len(set) {
		t.evictions++
		n--
	} else {
		t.fill[g]++
	}
	copy(set[1:n+1], set[:n])
	set[0] = tableLine[E]{tag: key}
	return &set[0].entry
}

// hitIn returns the entry for key among the live lines of group g after
// moving its line to the front, or nil.
func (t *Table[E]) hitIn(g int, key uint64) *E {
	live := t.lines[g*t.ways : g*t.ways+int(t.fill[g])]
	for i := range live {
		if live[i].tag == key {
			t.hits++
			if i > 0 {
				l := live[i]
				copy(live[1:i+1], live[:i])
				live[0] = l
			}
			return &live[0].entry
		}
	}
	return nil
}

// Len returns the number of live entries.
func (t *Table[E]) Len() int {
	if t.unbounded != nil {
		return len(t.unbounded)
	}
	n := 0
	for g := t.index; g < len(t.fill); g += t.tables {
		n += int(t.fill[g])
	}
	return n
}

// Stats reports lookup/hit/allocation/eviction counts for capacity
// analysis.
func (t *Table[E]) Stats() (lookups, hits, allocs, evictions uint64) {
	return t.lookups, t.hits, t.allocs, t.evictions
}
