package predictor

import (
	"destset/internal/nodeset"
	"destset/internal/trace"
)

// Two-bit saturating counter helpers (Table 3 uses 2-bit counters with a
// "predict when > 1" threshold throughout).

func inc2(c uint8) uint8 {
	if c < 3 {
		return c + 1
	}
	return c
}

func dec2(c uint8) uint8 {
	if c > 0 {
		return c - 1
	}
	return c
}

// ---------------------------------------------------------------------
// Owner (Table 3, column 1)

// ownerEntry records the last processor observed to invalidate or respond
// with the block. The zero value is invalid (knows nothing).
type ownerEntry struct {
	owner nodeset.NodeID
	valid bool
}

type ownerPredictor struct {
	cfg   Config
	table Table[ownerEntry]
}

func (p *ownerPredictor) Name() string { return p.cfg.Name() }

func (p *ownerPredictor) CloneFresh() Predictor { return New(p.cfg) }

func (p *ownerPredictor) Predict(q Query) nodeset.Set {
	min := q.MinimalSet()
	if e := p.table.Lookup(p.cfg.Indexing.Key(q.Addr, q.PC)); e != nil && e.valid {
		return min.Add(e.owner)
	}
	return min
}

func (p *ownerPredictor) TrainResponse(ev Response) {
	key := p.cfg.Indexing.Key(ev.Addr, ev.PC)
	if ev.FromMemory {
		// The minimal set was sufficient: clear without allocating.
		if e := p.table.Lookup(key); e != nil {
			e.valid = false
		}
		return
	}
	e := p.table.LookupAlloc(key)
	e.owner = ev.Responder
	e.valid = true
}

func (p *ownerPredictor) TrainRequest(ev External) {
	if ev.Kind != trace.GetExclusive {
		return // requests for shared are ignored (Table 3)
	}
	e := p.table.LookupAlloc(p.cfg.Indexing.Key(ev.Addr, ev.PC))
	e.owner = ev.Requester
	e.valid = true
}

func (p *ownerPredictor) TrainRetry(Retry) {}

// ---------------------------------------------------------------------
// Broadcast-If-Shared (Table 3, column 2)

// bisEntry is a 2-bit saturating counter; > 1 predicts broadcast.
type bisEntry struct {
	counter uint8
}

type bisPredictor struct {
	cfg   Config
	all   nodeset.Set
	table Table[bisEntry]
}

func (p *bisPredictor) Name() string { return p.cfg.Name() }

func (p *bisPredictor) CloneFresh() Predictor { return New(p.cfg) }

func (p *bisPredictor) Predict(q Query) nodeset.Set {
	if e := p.table.Lookup(p.cfg.Indexing.Key(q.Addr, q.PC)); e != nil && e.counter > 1 {
		return p.all
	}
	return q.MinimalSet()
}

func (p *bisPredictor) TrainResponse(ev Response) {
	key := p.cfg.Indexing.Key(ev.Addr, ev.PC)
	if ev.FromMemory {
		if e := p.table.Lookup(key); e != nil {
			e.counter = dec2(e.counter)
		}
		return
	}
	e := p.table.LookupAlloc(key)
	e.counter = inc2(e.counter)
}

func (p *bisPredictor) TrainRequest(ev External) {
	// Unlike Owner, Broadcast-If-Shared counts every external request as
	// sharing evidence ("incremented on requests and responses from other
	// processors", §3.3) — a read from elsewhere means the block is shared.
	e := p.table.LookupAlloc(p.cfg.Indexing.Key(ev.Addr, ev.PC))
	e.counter = inc2(e.counter)
}

func (p *bisPredictor) TrainRetry(Retry) {}

// ---------------------------------------------------------------------
// Group (Table 3, column 3)

// defaultRolloverLimit is the paper's 5-bit rollover counter.
const defaultRolloverLimit = 32

// maxRolloverLimit is the largest limit groupEntry's rollover counter
// reaches before it wraps.
const maxRolloverLimit = 1<<32 - 1

// laneLSB masks the low bit of every 2-bit counter lane.
const laneLSB = 0x5555555555555555

// groupEntry holds one 2-bit counter per node plus the rollover counter
// that implements training-down: when the rollover counter reaches its
// limit (32, the paper's 5-bit counter, unless GroupRollover says
// otherwise), every per-node counter is decremented, so processors that
// stopped touching the block eventually leave the predicted set. The
// counter is 32 bits wide, so any limit up to maxRolloverLimit is
// reached before it wraps; it fits in the padding after the lanes.
//
// The counters are packed as 2-bit lanes in two machine words (node n
// occupies bits 2n..2n+1 of lo for n < 32, of hi otherwise), so an entry
// is a flat value — no per-entry allocation, and the decay sweep and
// predicted-set extraction are a handful of SWAR bit operations instead
// of per-node loops. This is also how the hardware in the paper would
// build it: a row of 2-bit saturating counters, not an array walk.
type groupEntry struct {
	lo, hi   uint64
	rollover uint32
}

// inc2w saturates-up the 2-bit lane for bit offset sh within w.
func inc2w(w uint64, sh uint) uint64 {
	if w>>sh&3 < 3 {
		w += 1 << sh
	}
	return w
}

// dec2nz decrements every non-zero 2-bit lane of w by one: a lane is
// non-zero iff either of its bits is set, and subtracting the resulting
// lane-LSB mask never borrows across lanes.
func dec2nz(w uint64) uint64 {
	return w - ((w | w>>1) & laneLSB)
}

// compactOdd gathers the odd bits of w (bit 2n+1 for lane n) into the
// low 32 bits — the "counter > 1" test for all lanes at once, since a
// 2-bit counter exceeds 1 exactly when its high bit is set.
func compactOdd(w uint64) uint64 {
	w = (w >> 1) & laneLSB
	w = (w | w>>1) & 0x3333333333333333
	w = (w | w>>2) & 0x0F0F0F0F0F0F0F0F
	w = (w | w>>4) & 0x00FF00FF00FF00FF
	w = (w | w>>8) & 0x0000FFFF0000FFFF
	return (w | w>>16) & 0x00000000FFFFFFFF
}

func (e *groupEntry) bump(n nodeset.NodeID, limit int) {
	if n < 32 {
		e.lo = inc2w(e.lo, 2*uint(n))
	} else {
		e.hi = inc2w(e.hi, 2*uint(n-32))
	}
	e.tick(limit)
}

func (e *groupEntry) tick(limit int) {
	e.rollover++
	if int(e.rollover) >= limit {
		e.rollover = 0
		e.lo = dec2nz(e.lo)
		e.hi = dec2nz(e.hi)
	}
}

func (e *groupEntry) predicted() nodeset.Set {
	return nodeset.Set(compactOdd(e.lo) | compactOdd(e.hi)<<32)
}

type groupPredictor struct {
	cfg   Config
	table Table[groupEntry]
}

func (p *groupPredictor) Name() string { return p.cfg.Name() }

func (p *groupPredictor) CloneFresh() Predictor { return New(p.cfg) }

func (p *groupPredictor) Predict(q Query) nodeset.Set {
	min := q.MinimalSet()
	if e := p.table.Lookup(p.cfg.Indexing.Key(q.Addr, q.PC)); e != nil {
		return min.Union(e.predicted())
	}
	return min
}

func (p *groupPredictor) TrainResponse(ev Response) {
	key := p.cfg.Indexing.Key(ev.Addr, ev.PC)
	if ev.FromMemory {
		// No allocation; an existing entry still advances its decay clock.
		if e := p.table.Lookup(key); e != nil {
			e.tick(p.cfg.GroupRollover)
		}
		return
	}
	p.table.LookupAlloc(key).bump(ev.Responder, p.cfg.GroupRollover)
}

func (p *groupPredictor) TrainRequest(ev External) {
	// Group increments "on each request or response" (§3.3): readers join
	// the predicted set so that writes find the sharers they must
	// invalidate.
	p.table.LookupAlloc(p.cfg.Indexing.Key(ev.Addr, ev.PC)).bump(ev.Requester, p.cfg.GroupRollover)
}

func (p *groupPredictor) TrainRetry(Retry) {}

// ---------------------------------------------------------------------
// Owner/Group hybrid (§3.3)

// ownerGroupEntry carries both sub-policies' state in one entry so a
// single table lookup serves either request kind.
type ownerGroupEntry struct {
	owner ownerEntry
	group groupEntry
}

type ownerGroupPredictor struct {
	cfg   Config
	table Table[ownerGroupEntry]
}

func (p *ownerGroupPredictor) Name() string { return p.cfg.Name() }

func (p *ownerGroupPredictor) CloneFresh() Predictor { return New(p.cfg) }

func (p *ownerGroupPredictor) Predict(q Query) nodeset.Set {
	min := q.MinimalSet()
	e := p.table.Lookup(p.cfg.Indexing.Key(q.Addr, q.PC))
	if e == nil {
		return min
	}
	if q.Kind == trace.GetShared {
		// Requests for shared go only to the predicted owner: every node
		// in a stable sharing set sees all GETX traffic, so each tracks
		// the current owner and pairwise finds it directly.
		if e.owner.valid {
			return min.Add(e.owner.owner)
		}
		return min
	}
	return min.Union(e.group.predicted())
}

func (p *ownerGroupPredictor) TrainResponse(ev Response) {
	key := p.cfg.Indexing.Key(ev.Addr, ev.PC)
	if ev.FromMemory {
		if e := p.table.Lookup(key); e != nil {
			e.owner.valid = false
			e.group.tick(p.cfg.GroupRollover)
		}
		return
	}
	e := p.table.LookupAlloc(key)
	e.owner = ownerEntry{owner: ev.Responder, valid: true}
	e.group.bump(ev.Responder, p.cfg.GroupRollover)
}

func (p *ownerGroupPredictor) TrainRequest(ev External) {
	e := p.table.LookupAlloc(p.cfg.Indexing.Key(ev.Addr, ev.PC))
	// The group side counts all requests (readers must be invalidated by
	// later writes); the owner side only tracks writers.
	e.group.bump(ev.Requester, p.cfg.GroupRollover)
	if ev.Kind == trace.GetExclusive {
		e.owner = ownerEntry{owner: ev.Requester, valid: true}
	}
}

func (p *ownerGroupPredictor) TrainRetry(Retry) {}
