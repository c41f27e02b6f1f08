package predictor

import (
	"fmt"

	"destset/internal/nodeset"
	"destset/internal/trace"
)

// Step trains a whole bank on one multicast miss in one call. StepOf
// returns one for the banks NewBank builds with a finite table policy.
type Step interface {
	// Miss predicts from the requester's table and returns that
	// prediction with the minimal set added, exactly as the requester's
	// Predict(q) would. It then trains every other node the request
	// reaches (the prediction, plus the needed set when the prediction
	// does not cover it and the home reissues the request) as its
	// TrainRequest would, and the requester on the data response as its
	// TrainResponse would: responder and fromMemory describe the
	// response, and none marks an upgrade by the owner, which gets no
	// response. Every member table's Stats and Len end as those per-node
	// calls leave them.
	//
	// The miss comes as separate arguments rather than one struct: a
	// struct of byte-wide fields built just before the call is copied
	// with wide loads that stall on store forwarding.
	Miss(q Query, needed nodeset.Set, responder nodeset.NodeID, fromMemory, none bool) nodeset.Set
}

// StepOf returns the bank-level step for preds, or nil when preds is not
// exactly the bank one NewBank call built, in node order, with a finite
// Owner, BroadcastIfShared, Group or OwnerGroup table. Other banks take
// the per-node Predictor methods. A caller decides this once per bank.
func StepOf(preds []Predictor) Step {
	if len(preds) == 0 {
		return nil
	}
	m, ok := preds[0].(tableMember)
	if !ok || !m.whole(preds) || m.config().Entries == 0 {
		return nil
	}
	return m.step()
}

// tableMember is a member of a table policy's bank.
type tableMember interface {
	Predictor
	// whole reports whether preds is exactly this member's bank.
	whole(preds []Predictor) bool
	config() Config
	step() Step
	recycle()
	reset()
}

// tableBank is what the members one newBank call builds for a table
// policy share: the configuration, the broadcast set, one table per
// member (all on one set-major array when finite, see Table) and the
// members in node order. A finite bank may be recycled (Recycle) and
// built again from the free list.
type tableBank[E any] struct {
	cfg     Config
	all     nodeset.Set
	tables  []Table[E]
	members []Predictor
}

// member is one node's predictor of a table policy: its bank and its
// own table there. Each table policy embeds it.
type member[E any] struct {
	bank  *tableBank[E]
	table *Table[E]
}

// newMembers builds n members of a table policy's bank; wrap makes the
// policy's predictor around each. A finite bank of the same normalized
// configuration and size that was recycled and survives on the free
// list is reset and taken instead.
func newMembers[E any](cfg Config, n int, wrap func(member[E]) Predictor) []Predictor {
	var members []Predictor
	if cfg.Entries > 0 {
		members = takeMembers(freeKey{cfg, n})
	}
	if members == nil {
		b := &tableBank[E]{
			cfg:     cfg,
			all:     nodeset.All(cfg.Nodes),
			tables:  newTables[E](cfg.Entries, cfg.Ways, n),
			members: make([]Predictor, n),
		}
		for i := range b.members {
			b.members[i] = wrap(member[E]{bank: b, table: &b.tables[i]})
		}
		members = b.members
	}
	// The caller owns the slice it gets and may replace members, so the
	// bank keeps its own.
	return append([]Predictor(nil), members...)
}

func (m member[E]) Name() string { return m.bank.cfg.Name() }

func (m member[E]) config() Config { return m.bank.cfg }

func (m member[E]) whole(preds []Predictor) bool {
	if len(preds) != len(m.bank.members) {
		return false
	}
	for i, p := range preds {
		if p != m.bank.members[i] {
			return false
		}
	}
	return true
}

// key is the member's table key for an address and PC.
func (m member[E]) key(addr trace.Addr, pc trace.PC) uint64 {
	return m.bank.cfg.Indexing.Key(addr, pc)
}

// TableStats reports the member's table: its Stats counts and its live
// entries (Len).
func (m member[E]) TableStats() (lookups, hits, allocs, evictions uint64, live int) {
	lookups, hits, allocs, evictions = m.table.Stats()
	return lookups, hits, allocs, evictions, m.table.Len()
}

// at returns a miss's table key and the group of node 0's table that
// holds the key's set; node n's is that group plus n.
func (b *tableBank[E]) at(addr trace.Addr, pc trace.PC) (key uint64, base int) {
	key = b.cfg.Indexing.Key(addr, pc)
	return key, int(key&b.tables[0].mask) * len(b.tables)
}

// entry returns member n's entry for key, or nil, given the group of
// node 0's table that holds the key's set; with alloc set it allocates
// an absent entry. It is lookupIn or allocIn, with their most common
// case inline: a hit on the set's most recent line.
func (b *tableBank[E]) entry(n nodeset.NodeID, base int, key uint64, alloc bool) *E {
	t := &b.tables[n]
	g := base + int(n)
	if t.fill[g] != 0 && t.lines[g*t.ways].tag == key {
		t.lookups++
		t.hits++
		return &t.lines[g*t.ways].entry
	}
	if alloc {
		return t.allocIn(g, key)
	}
	return t.lookupIn(g, key)
}

// observers returns the nodes other than the requester req that a miss
// with the predicted set mask reaches: mask, plus the needed set when
// the home reissues the request. It panics on a node outside the bank,
// as the per-node path's indexing would.
func (b *tableBank[E]) observers(req nodeset.NodeID, needed, mask nodeset.Set) nodeset.Set {
	obs := mask
	if !mask.Superset(needed) {
		obs = obs.Union(needed)
	}
	if obs>>uint(len(b.tables)) != 0 {
		panic(fmt.Sprintf("predictor: miss reaches %v, outside a bank of %d", obs, len(b.tables)))
	}
	return obs.Remove(req)
}
