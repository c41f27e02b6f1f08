// Package protocol implements the three coherence protocols the paper
// compares, as trace-driven accounting engines over the coherence oracle:
//
//   - Broadcast snooping: every request goes to all nodes on the totally-
//     ordered interconnect; no indirections ever, maximal request traffic.
//   - Directory (AlphaServer GS320-style, §4.2): requests go to the home
//     node; the directory forwards to the owner and sends invalidations to
//     sharers. Misses serviced by a remote cache take a 3-hop indirection.
//     The totally-ordered network eliminates acknowledgment messages.
//   - Multicast snooping (§4.1): requests multicast to a predicted
//     destination set; the home directory checks sufficiency and reissues
//     insufficient requests with the exact owner/sharer set (Sorin et al.
//     optimization), which costs a 3-hop-like retry.
//
// Each engine consumes (record, MissInfo) pairs in interconnect order and
// produces per-miss accounting: request messages (requests + forwards +
// invalidations + retries), data messages and whether the miss required an
// indirection. The multicast engine also drives predictor training with
// exactly the events each node would observe (§3.2).
//
// A recorded stream can also be accounted a range at a time, straight
// from its columns (ProcessRange): Snooping, Directory and Multicast
// read the columns of each miss and apply the same per-miss rules as
// Process, with no Record, MissInfo or Result built per miss; any other
// engine gets each miss rebuilt and passed to Process.
package protocol

import (
	"fmt"
	"runtime"

	"destset/internal/coherence"
	"destset/internal/nodeset"
	"destset/internal/predictor"
	"destset/internal/trace"
)

// Message sizes from the paper (§5.1): requests, forwards and retries are
// 8-byte control messages; data responses carry 64 bytes plus an 8-byte
// header.
const (
	ControlBytes = 8
	DataBytes    = 72
)

// Result is the accounting outcome of one miss.
type Result struct {
	// RequestMsgs counts request, forward, invalidation and retry control
	// messages (the paper's "request bandwidth per miss").
	RequestMsgs int
	// DataMsgs counts data response messages (0 for an upgrade by the
	// owner, 1 otherwise).
	DataMsgs int
	// Indirect reports whether the miss could not complete directly: a
	// 3-hop forward in the directory protocol or a directory reissue in
	// multicast snooping. Broadcast snooping never indirects.
	Indirect bool
	// Retries counts multicast snooping reissues (0 for other protocols).
	Retries int
	// InitialSet is the destination set of the initial request (the
	// predicted set for multicast snooping).
	InitialSet nodeset.Set
}

// Bytes returns the traffic of this miss in bytes.
func (r Result) Bytes() int { return r.RequestMsgs*ControlBytes + r.DataMsgs*DataBytes }

// Engine processes misses in interconnect order. A sweep cell builds
// its engine fresh, calling the engine's registered factory once, and
// the engine keeps what it learns for as long as it is fed.
type Engine interface {
	// Process accounts one miss. mi must be the coherence oracle's
	// annotation for rec.
	Process(rec trace.Record, mi coherence.MissInfo) Result
	// Name identifies the protocol (and predictor, if any) in reports.
	Name() string
}

// dataMsgs returns how many data responses a miss by req produces: none
// when req already owns the block (an upgrade, MissInfo.Responder's none
// case), one otherwise.
func dataMsgs(req, owner nodeset.NodeID) int {
	if owner == req {
		return 0
	}
	return 1
}

// ranger is an engine that accounts a range of a recorded stream's
// columns itself (see ProcessRange).
type ranger interface {
	// processRange accounts misses [lo, hi) of c into t, exactly as
	// Process on each miss in order followed by t.Add would; a nil t is
	// warm-up, which trains the engine without accounting.
	processRange(c *coherence.Columns, lo, hi int, t *Totals)
}

// ProcessRange accounts misses [lo, hi) of a recorded stream on e, in
// order, into t; a nil t is warm-up, which trains e without accounting.
// Snooping, Directory and Multicast read the columns directly. Any other
// engine, such as PredictiveDirectory or one registered with
// RegisterEngine, gets each miss rebuilt as a (Record, MissInfo) pair and
// passed to Process. This is the only place that decides.
//
// c may alias a file mapping that the garbage collector does not see,
// pinned only by c itself (dataset.Replayer.Take), so c is kept
// reachable until the range has been read.
func ProcessRange(e Engine, c *coherence.Columns, lo, hi int, t *Totals) {
	if r, ok := e.(ranger); ok {
		r.processRange(c, lo, hi, t)
	} else {
		for i := lo; i < hi; i++ {
			rec, mi := c.At(i)
			res := e.Process(rec, mi)
			if t != nil {
				t.Add(res)
			}
		}
	}
	runtime.KeepAlive(c)
}

// ---------------------------------------------------------------------
// Broadcast snooping

// Snooping is the broadcast snooping engine: requests reach every node.
type Snooping struct {
	nodes int
}

// NewSnooping returns a broadcast snooping engine for an n-node system.
func NewSnooping(n int) *Snooping { return &Snooping{nodes: n} }

// Name implements Engine.
func (s *Snooping) Name() string { return "Broadcast Snooping" }

// Process implements Engine. A broadcast is always sufficient: the owner
// and all sharers observe every request, so no miss ever indirects.
func (s *Snooping) Process(rec trace.Record, mi coherence.MissInfo) Result {
	return Result{
		RequestMsgs: s.nodes - 1,
		DataMsgs:    dataMsgs(nodeset.NodeID(rec.Requester), mi.Owner),
		InitialSet:  nodeset.All(s.nodes),
	}
}

// processRange implements ranger. Broadcast snooping keeps no state, so
// warm-up has nothing to do.
func (s *Snooping) processRange(c *coherence.Columns, lo, hi int, t *Totals) {
	if t == nil {
		return
	}
	data := 0
	for i := lo; i < hi; i++ {
		data += dataMsgs(nodeset.NodeID(c.Req[i]), c.Owner[i])
	}
	n := uint64(hi - lo)
	t.Merge(Totals{Misses: n, RequestMsgs: n * uint64(s.nodes-1), DataMsgs: uint64(data)})
}

// ---------------------------------------------------------------------
// Directory

// Directory is the GS320-style directory engine.
type Directory struct{}

// NewDirectory returns a directory protocol engine.
func NewDirectory() *Directory { return &Directory{} }

// Name implements Engine.
func (d *Directory) Name() string { return "Directory" }

// Process implements Engine.
func (d *Directory) Process(rec trace.Record, mi coherence.MissInfo) Result {
	req := nodeset.NodeID(rec.Requester)
	msgs, indirect := directoryMiss(req, rec.Kind, mi.Owner, mi.Sharers)
	return Result{
		RequestMsgs: msgs,
		DataMsgs:    dataMsgs(req, mi.Owner),
		Indirect:    indirect,
		InitialSet:  coherence.MinimalSet(req, mi.Home),
	}
}

// directoryMiss returns the request messages of one directory miss and
// whether it indirects; Process and processRange share it. The request
// goes to the home; the directory forwards to a remote owner (the
// indirection) and invalidates remote sharers for write requests. No
// acknowledgments are needed on the totally-ordered interconnect. The
// rules read only the owner and the sharers of the miss's annotation.
func directoryMiss(req nodeset.NodeID, kind trace.Kind, owner nodeset.NodeID, sharers nodeset.Set) (msgs int, indirect bool) {
	mi := coherence.MissInfo{Owner: owner, Sharers: sharers}
	msgs = 1 // request to home
	if mi.CacheToCache(req) {
		msgs++ // forward to the remote owner
	}
	if kind == trace.GetExclusive {
		// Invalidations to remote sharers (the owner already sees the
		// forward; the requester upgrades in place).
		msgs += sharers.Remove(req).Remove(owner).Count()
	}
	return msgs, mi.DirIndirection(req)
}

// processRange implements ranger. The directory engine keeps no state,
// so warm-up has nothing to do.
func (d *Directory) processRange(c *coherence.Columns, lo, hi int, t *Totals) {
	if t == nil {
		return
	}
	var msgs, data, indirect uint64
	for i := lo; i < hi; i++ {
		req, owner := nodeset.NodeID(c.Req[i]), c.Owner[i]
		n, ind := directoryMiss(req, c.Kind[i], owner, c.Sharers[i])
		msgs += uint64(n)
		data += uint64(dataMsgs(req, owner))
		if ind {
			indirect++
		}
	}
	t.Merge(Totals{Misses: uint64(hi - lo), RequestMsgs: msgs, DataMsgs: data, Indirect: indirect})
}

// ---------------------------------------------------------------------
// Multicast snooping

// Multicast is the multicast snooping engine with per-node destination-set
// predictors.
//
// A bank that NewBank built with a finite Owner, BroadcastIfShared,
// Group or OwnerGroup table trains through its bank step
// (predictor.StepOf): one call per miss computes the table key once and
// walks the requester's and every observer's adjacent set. Any other
// bank, such as one with a registered custom member, StickySpatial,
// Minimal, Broadcast, Oracle or unbounded tables, takes the per-node
// path: one Predict and one Train call per node. Both train the same
// tables the same way.
type Multicast struct {
	nodes int
	preds []predictor.Predictor
	// oracles is predictor.OracleSetters(preds) and step is
	// predictor.StepOf(preds), both decided once per bank.
	oracles []predictor.OracleSetter
	step    predictor.Step
	stats   MulticastStats
}

// MulticastStats aggregates predictor-level accuracy counters.
type MulticastStats struct {
	// Sufficient counts initial predictions that covered the needed set.
	Sufficient uint64
	// Insufficient counts initial predictions that required a reissue.
	Insufficient uint64
	// PredictedNodes sums initial destination-set sizes.
	PredictedNodes uint64
	// NeededNodes sums needed destination-set sizes.
	NeededNodes uint64
}

// NewMulticast returns a multicast snooping engine over one predictor per
// node. The bank must have one entry per node.
func NewMulticast(preds []predictor.Predictor) *Multicast {
	if len(preds) == 0 {
		panic("protocol: multicast engine needs at least one predictor")
	}
	return &Multicast{
		nodes:   len(preds),
		preds:   preds,
		oracles: predictor.OracleSetters(preds),
		step:    predictor.StepOf(preds),
	}
}

// Name implements Engine.
func (m *Multicast) Name() string { return "Multicast+" + m.preds[0].Name() }

// Stats returns the accumulated prediction-accuracy counters.
func (m *Multicast) Stats() MulticastStats { return m.stats }

// Process implements Engine: predict, multicast, check sufficiency at the
// home directory, reissue if insufficient, and deliver training events.
func (m *Multicast) Process(rec trace.Record, mi coherence.MissInfo) Result {
	mask, msgs, retries, data := m.miss(rec.Addr, rec.PC, nodeset.NodeID(rec.Requester), rec.Kind, mi.Home, mi.Owner, mi.Sharers)
	// One composite literal: a Result filled field by field just before
	// the return stalls the caller's load of it on store forwarding.
	return Result{RequestMsgs: msgs, DataMsgs: data, Indirect: retries != 0, Retries: retries, InitialSet: mask}
}

// processRange implements ranger: it applies miss to every miss of the
// range, the home derived from the address as the recording derived it.
func (m *Multicast) processRange(c *coherence.Columns, lo, hi int, t *Totals) {
	var msgs, retries, data, indirect uint64
	for i := lo; i < hi; i++ {
		addr := c.Addr[i]
		_, n, r, d := m.miss(addr, c.PC[i], nodeset.NodeID(c.Req[i]), c.Kind[i], coherence.HomeOf(addr, c.Nodes), c.Owner[i], c.Sharers[i])
		msgs += uint64(n)
		retries += uint64(r)
		data += uint64(d)
		if r != 0 {
			indirect++
		}
	}
	if t != nil {
		t.Merge(Totals{Misses: uint64(hi - lo), RequestMsgs: msgs, DataMsgs: data, Indirect: indirect, Retries: retries})
	}
}

// miss is the multicast engine's per-miss rule, which Process and
// processRange share: it trains the bank on one miss, counts its
// accuracy, and returns the initial destination set, the request
// messages, the reissues and the data messages. The miss comes as
// separate fields and the outcome goes back as separate results, so no
// struct is copied across the call.
func (m *Multicast) miss(addr trace.Addr, pc trace.PC, req nodeset.NodeID, kind trace.Kind, home, owner nodeset.NodeID, sharers nodeset.Set) (mask nodeset.Set, msgs, retries, data int) {
	mi := coherence.MissInfo{Home: home, Owner: owner, Sharers: sharers}
	needed := mi.Needed(req, kind)
	responder, fromMemory, none := mi.Responder(req)
	q := predictor.Query{Addr: addr, PC: pc, Requester: req, Home: home, Kind: kind}
	if m.step != nil {
		mask = m.step.Miss(q, needed, responder, fromMemory, none)
	} else {
		mask = m.perNode(q, needed, responder, fromMemory, none)
	}

	msgs = mask.Remove(req).Count()
	if mask.Superset(needed) {
		m.stats.Sufficient++
	} else {
		// The home directory reissues the request to the exact set of
		// nodes that must act, like a directory forward (§4.1). In trace
		// order there are no races, so one reissue always succeeds.
		m.stats.Insufficient++
		retries = 1
		msgs += needed.Minus(mask).Remove(home).Count()
	}
	m.stats.PredictedNodes += uint64(mask.Count())
	m.stats.NeededNodes += uint64(needed.Count())
	return mask, msgs, retries, dataMsgs(req, owner)
}

// perNode trains a bank without a bank step on one miss, one member call
// per node, and returns the initial destination set: every node that
// receives the request observes it, the requester observes a reissue
// and the data response. The explicit bit loop (rather than Set.ForEach
// with a closure) keeps this path free of per-miss call overhead — it
// runs up to nodes-1 times per miss.
func (m *Multicast) perNode(q predictor.Query, needed nodeset.Set, responder nodeset.NodeID, fromMemory, none bool) nodeset.Set {
	req := q.Requester
	if m.oracles != nil && m.oracles[req] != nil {
		m.oracles[req].SetOracle(needed)
	}
	mask := m.preds[req].Predict(q).Union(q.MinimalSet())
	observers := mask
	if !mask.Superset(needed) {
		observers = observers.Union(needed)
		m.preds[req].TrainRetry(predictor.Retry{Addr: q.Addr, PC: q.PC, Needed: needed})
	}
	ext := predictor.External{Addr: q.Addr, PC: q.PC, Requester: req, Kind: q.Kind}
	for rem := observers.Remove(req); !rem.Empty(); {
		n := rem.First()
		rem = rem.Remove(n)
		m.preds[n].TrainRequest(ext)
	}
	if !none {
		m.preds[req].TrainResponse(predictor.Response{Addr: q.Addr, PC: q.PC, Responder: responder, FromMemory: fromMemory})
	}
	return mask
}

// ---------------------------------------------------------------------
// Aggregation

// Totals accumulates per-miss results into the trace-driven metrics of §4:
// indirections as a percent of misses and request messages per miss.
type Totals struct {
	Misses      uint64
	RequestMsgs uint64
	DataMsgs    uint64
	Indirect    uint64
	Retries     uint64
}

// Add accumulates one miss.
func (t *Totals) Add(r Result) {
	t.Misses++
	t.RequestMsgs += uint64(r.RequestMsgs)
	t.DataMsgs += uint64(r.DataMsgs)
	if r.Indirect {
		t.Indirect++
	}
	t.Retries += uint64(r.Retries)
}

// Merge accumulates every miss of u.
func (t *Totals) Merge(u Totals) {
	t.Misses += u.Misses
	t.RequestMsgs += u.RequestMsgs
	t.DataMsgs += u.DataMsgs
	t.Indirect += u.Indirect
	t.Retries += u.Retries
}

// IndirectionPercent returns the percent of misses requiring indirection
// (the y-axis of Figures 5 and 6).
func (t *Totals) IndirectionPercent() float64 {
	if t.Misses == 0 {
		return 0
	}
	return 100 * float64(t.Indirect) / float64(t.Misses)
}

// RequestMsgsPerMiss returns request messages per miss (the x-axis of
// Figures 5 and 6).
func (t *Totals) RequestMsgsPerMiss() float64 {
	if t.Misses == 0 {
		return 0
	}
	return float64(t.RequestMsgs) / float64(t.Misses)
}

// BytesPerMiss returns total traffic per miss in bytes.
func (t *Totals) BytesPerMiss() float64 {
	if t.Misses == 0 {
		return 0
	}
	return float64(t.RequestMsgs*ControlBytes+t.DataMsgs*DataBytes) / float64(t.Misses)
}

// String summarizes the totals.
func (t *Totals) String() string {
	return fmt.Sprintf("misses=%d req/miss=%.2f indirections=%.1f%% bytes/miss=%.1f",
		t.Misses, t.RequestMsgsPerMiss(), t.IndirectionPercent(), t.BytesPerMiss())
}
