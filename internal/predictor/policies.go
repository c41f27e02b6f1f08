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

// predict adds the owner, if known, to the minimal set min; e is nil
// when the table has no entry.
func (e *ownerEntry) predict(min nodeset.Set) nodeset.Set {
	if e != nil && e.valid {
		return min.Add(e.owner)
	}
	return min
}

// learn records n as the owner.
func (e *ownerEntry) learn(n nodeset.NodeID) { *e = ownerEntry{owner: n, valid: true} }

// respond trains on a data response: a response from memory means the
// minimal set sufficed, so the owner is forgotten.
func (e *ownerEntry) respond(n nodeset.NodeID, fromMemory bool) {
	if fromMemory {
		e.valid = false
		return
	}
	e.learn(n)
}

type ownerPredictor struct{ member[ownerEntry] }

func (p *ownerPredictor) step() Step { return ownerStep{p.bank} }

func (p *ownerPredictor) Predict(q Query) nodeset.Set {
	return p.table.Lookup(p.key(q.Addr, q.PC)).predict(q.MinimalSet())
}

func (p *ownerPredictor) TrainResponse(ev Response) {
	if e := p.table.response(p.key(ev.Addr, ev.PC), ev.FromMemory); e != nil {
		e.respond(ev.Responder, ev.FromMemory)
	}
}

func (p *ownerPredictor) TrainRequest(ev External) {
	if ev.Kind != trace.GetExclusive {
		return // requests for shared are ignored (Table 3)
	}
	p.table.LookupAlloc(p.key(ev.Addr, ev.PC)).learn(ev.Requester)
}

func (p *ownerPredictor) TrainRetry(Retry) {}

// ownerStep is the bank step (Step) of an Owner bank. Each table
// policy writes its step out with its own entry rules, the ones its
// per-node methods call: calling the rules through a type parameter of
// one shared step goes through a dictionary per entry, and gave back
// most of the step's gain when measured.
type ownerStep struct{ *tableBank[ownerEntry] }

func (b ownerStep) Miss(q Query, needed nodeset.Set, responder nodeset.NodeID, fromMemory, none bool) nodeset.Set {
	key, base := b.at(q.Addr, q.PC)
	req := q.Requester
	mask := b.entry(req, base, key, false).predict(nodeset.Pair(req, q.Home))
	obs := b.observers(req, needed, mask)
	if q.Kind != trace.GetExclusive {
		obs = 0 // requests for shared are ignored (Table 3)
	}
	for rem := obs; !rem.Empty(); {
		n := rem.First()
		rem = rem.Remove(n)
		b.entry(n, base, key, true).learn(req)
	}
	if none {
		return mask
	}
	if e := b.entry(req, base, key, !fromMemory); e != nil {
		e.respond(responder, fromMemory)
	}
	return mask
}

// ---------------------------------------------------------------------
// Broadcast-If-Shared (Table 3, column 2)

// bisEntry is a 2-bit saturating counter; > 1 predicts broadcast.
type bisEntry struct {
	counter uint8
}

// predict returns all for a shared-looking block and the minimal set
// min otherwise; e is nil when the table has no entry.
func (e *bisEntry) predict(min, all nodeset.Set) nodeset.Set {
	if e != nil && e.counter > 1 {
		return all
	}
	return min
}

// Unlike Owner, Broadcast-If-Shared counts every external request as
// sharing evidence ("incremented on requests and responses from other
// processors", §3.3) — a read from elsewhere means the block is shared.
func (e *bisEntry) request() { e.counter = inc2(e.counter) }

// respond counts a response from another cache up and one from memory
// down.
func (e *bisEntry) respond(fromMemory bool) {
	if fromMemory {
		e.counter = dec2(e.counter)
		return
	}
	e.counter = inc2(e.counter)
}

type bisPredictor struct{ member[bisEntry] }

func (p *bisPredictor) step() Step { return bisStep{p.bank} }

func (p *bisPredictor) Predict(q Query) nodeset.Set {
	return p.table.Lookup(p.key(q.Addr, q.PC)).predict(q.MinimalSet(), p.bank.all)
}

func (p *bisPredictor) TrainResponse(ev Response) {
	if e := p.table.response(p.key(ev.Addr, ev.PC), ev.FromMemory); e != nil {
		e.respond(ev.FromMemory)
	}
}

func (p *bisPredictor) TrainRequest(ev External) {
	p.table.LookupAlloc(p.key(ev.Addr, ev.PC)).request()
}

func (p *bisPredictor) TrainRetry(Retry) {}

// bisStep is the bank step of a BroadcastIfShared bank.
type bisStep struct{ *tableBank[bisEntry] }

func (b bisStep) Miss(q Query, needed nodeset.Set, responder nodeset.NodeID, fromMemory, none bool) nodeset.Set {
	key, base := b.at(q.Addr, q.PC)
	req := q.Requester
	mask := b.entry(req, base, key, false).predict(nodeset.Pair(req, q.Home), b.all)
	for rem := b.observers(req, needed, mask); !rem.Empty(); {
		n := rem.First()
		rem = rem.Remove(n)
		b.entry(n, base, key, true).request()
	}
	if none {
		return mask
	}
	if e := b.entry(req, base, key, !fromMemory); e != nil {
		e.respond(fromMemory)
	}
	return mask
}

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

// predict adds the predicted group to the minimal set min; e is nil when
// the table has no entry.
func (e *groupEntry) predict(min nodeset.Set) nodeset.Set {
	if e != nil {
		return min.Union(e.predicted())
	}
	return min
}

// respond trains on a data response: the responder joins the group. A
// response from memory still advances the decay clock.
func (e *groupEntry) respond(n nodeset.NodeID, fromMemory bool, limit int) {
	if fromMemory {
		e.tick(limit)
		return
	}
	e.bump(n, limit)
}

type groupPredictor struct{ member[groupEntry] }

func (p *groupPredictor) step() Step { return groupStep{p.bank} }

func (p *groupPredictor) Predict(q Query) nodeset.Set {
	return p.table.Lookup(p.key(q.Addr, q.PC)).predict(q.MinimalSet())
}

func (p *groupPredictor) TrainResponse(ev Response) {
	if e := p.table.response(p.key(ev.Addr, ev.PC), ev.FromMemory); e != nil {
		e.respond(ev.Responder, ev.FromMemory, p.bank.cfg.GroupRollover)
	}
}

// TrainRequest: Group increments "on each request or response" (§3.3):
// readers join the predicted set so that writes find the sharers they
// must invalidate.
func (p *groupPredictor) TrainRequest(ev External) {
	p.table.LookupAlloc(p.key(ev.Addr, ev.PC)).bump(ev.Requester, p.bank.cfg.GroupRollover)
}

func (p *groupPredictor) TrainRetry(Retry) {}

// groupStep is the bank step of a Group bank.
type groupStep struct{ *tableBank[groupEntry] }

func (b groupStep) Miss(q Query, needed nodeset.Set, responder nodeset.NodeID, fromMemory, none bool) nodeset.Set {
	key, base := b.at(q.Addr, q.PC)
	req := q.Requester
	limit := b.cfg.GroupRollover
	mask := b.entry(req, base, key, false).predict(nodeset.Pair(req, q.Home))
	for rem := b.observers(req, needed, mask); !rem.Empty(); {
		n := rem.First()
		rem = rem.Remove(n)
		b.entry(n, base, key, true).bump(req, limit)
	}
	if none {
		return mask
	}
	if e := b.entry(req, base, key, !fromMemory); e != nil {
		e.respond(responder, fromMemory, limit)
	}
	return mask
}

// ---------------------------------------------------------------------
// Owner/Group hybrid (§3.3)

// ownerGroupEntry carries both sub-policies' state in one entry so a
// single table lookup serves either request kind.
type ownerGroupEntry struct {
	owner ownerEntry
	group groupEntry
}

// predict returns the minimal set min plus, for a request for shared,
// only the predicted owner: every node in a stable sharing set sees all
// GETX traffic, so each tracks the current owner and pairwise finds it
// directly. Other requests add the predicted group. e is nil when the
// table has no entry.
func (e *ownerGroupEntry) predict(min nodeset.Set, kind trace.Kind) nodeset.Set {
	switch {
	case e == nil:
		return min
	case kind == trace.GetShared:
		return e.owner.predict(min)
	default:
		return e.group.predict(min)
	}
}

// request trains on an external request: the group side counts all
// requests (readers must be invalidated by later writes); the owner side
// only tracks writers.
func (e *ownerGroupEntry) request(n nodeset.NodeID, kind trace.Kind, limit int) {
	e.group.bump(n, limit)
	if kind == trace.GetExclusive {
		e.owner.learn(n)
	}
}

// respond trains both halves on a data response.
func (e *ownerGroupEntry) respond(n nodeset.NodeID, fromMemory bool, limit int) {
	e.owner.respond(n, fromMemory)
	e.group.respond(n, fromMemory, limit)
}

type ownerGroupPredictor struct{ member[ownerGroupEntry] }

func (p *ownerGroupPredictor) step() Step { return ownerGroupStep{p.bank} }

func (p *ownerGroupPredictor) Predict(q Query) nodeset.Set {
	return p.table.Lookup(p.key(q.Addr, q.PC)).predict(q.MinimalSet(), q.Kind)
}

func (p *ownerGroupPredictor) TrainResponse(ev Response) {
	if e := p.table.response(p.key(ev.Addr, ev.PC), ev.FromMemory); e != nil {
		e.respond(ev.Responder, ev.FromMemory, p.bank.cfg.GroupRollover)
	}
}

func (p *ownerGroupPredictor) TrainRequest(ev External) {
	p.table.LookupAlloc(p.key(ev.Addr, ev.PC)).request(ev.Requester, ev.Kind, p.bank.cfg.GroupRollover)
}

func (p *ownerGroupPredictor) TrainRetry(Retry) {}

// ownerGroupStep is the bank step of an OwnerGroup bank.
type ownerGroupStep struct{ *tableBank[ownerGroupEntry] }

func (b ownerGroupStep) Miss(q Query, needed nodeset.Set, responder nodeset.NodeID, fromMemory, none bool) nodeset.Set {
	key, base := b.at(q.Addr, q.PC)
	req := q.Requester
	limit := b.cfg.GroupRollover
	mask := b.entry(req, base, key, false).predict(nodeset.Pair(req, q.Home), q.Kind)
	for rem := b.observers(req, needed, mask); !rem.Empty(); {
		n := rem.First()
		rem = rem.Remove(n)
		b.entry(n, base, key, true).request(req, q.Kind, limit)
	}
	if none {
		return mask
	}
	if e := b.entry(req, base, key, !fromMemory); e != nil {
		e.respond(responder, fromMemory, limit)
	}
	return mask
}
