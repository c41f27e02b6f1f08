// Package sim is the execution-driven timing simulator of §5: it replays
// per-node miss streams through a full protocol + interconnect timing
// model and reports runtime and interconnect traffic.
//
// The simulated target follows the paper's Table 4: 16 nodes, each with a
// 2 GHz processor, 4 MB L2 (12 ns), a memory controller for its slice of
// memory (80 ns, also holding the directory state), and a single link to
// one crossbar switch (10 GB/s, 50 ns traversal) that totally orders all
// requests. The resulting unloaded latencies are the paper's: ~180 ns for
// a memory fetch, ~112 ns for a snooped cache-to-cache transfer and
// ~242 ns for a directory-indirected or reissued request.
//
// Three protocol engines share the machinery:
//
//   - Snooping: requests broadcast; the owner or home responds directly.
//   - Directory: requests go to the home node, which forwards to the
//     owner and invalidates sharers after its 80 ns directory access.
//   - Multicast: requests multicast to a predicted destination set; the
//     home checks sufficiency and reissues insufficient requests with the
//     exact owner/sharer set. Because a racing request can be ordered
//     between the directory's snapshot and the reissue's ordering (the
//     window of vulnerability, §4.1), a reissue can fail again; the third
//     retry broadcasts, which always succeeds.
//
// Two processor models drive the streams (§5.2): a simple in-order
// blocking core (4 GIPS when perfect) and a detailed core that issues up
// to MSHRs outstanding misses within a reorder-buffer window, overlapping
// the spatial miss bursts commercial workloads produce.
//
// The simulator replays Sources — random-access cursors over a recorded
// trace region (source.go) — and its per-miss path is allocation-free in
// steady state: transactions live in a slab with one slot per timed
// record, protocol messages and their payloads are pooled and recycled
// when the crossbar releases them, every event handler is bound once at
// construction, and the per-node in-flight block filter is a fixed
// MSHR-sized array instead of a map.
//
// A run builds only what is its own: its predictor bank (job.go). What
// the runs of one warm and timed region pair share lives in their Job:
// the first run replays the warm region through its own coherence
// oracle and lays out the timed region's per-node streams, a shared Job
// keeps the oracle's snapshot and the warm misses with the MissInfo each
// observed, and every later run restores the snapshot, trains its bank
// over the recorded columns and replays the same streams. Everything
// else a run mutates — oracle, event loop, crossbar links, transaction
// slab, message pool, latency histogram — is a shell that a sweep lends
// its runs from a free list (Shells), so each run resets a shell,
// whose oracle's caches keep the pages of sets earlier runs filled,
// instead of building one. A one-call run (Simulate) builds a shell and
// drops it, but hands its oracle to coherence.Recycle, so the next such
// run of that configuration resets it instead of building a new one.
package sim

import (
	"context"
	"fmt"

	"destset/internal/coherence"
	"destset/internal/event"
	"destset/internal/interconnect"
	"destset/internal/nodeset"
	"destset/internal/predictor"
	"destset/internal/protocol"
	"destset/internal/stats"
	"destset/internal/trace"
)

// Protocol selects the coherence protocol to simulate.
type Protocol uint8

const (
	// Snooping is broadcast snooping on the totally-ordered crossbar.
	Snooping Protocol = iota
	// Directory is the GS320-style directory protocol.
	Directory
	// Multicast is multicast snooping with a destination-set predictor.
	Multicast
)

// String names the protocol.
func (p Protocol) String() string {
	switch p {
	case Snooping:
		return "snooping"
	case Directory:
		return "directory"
	case Multicast:
		return "multicast"
	default:
		return fmt.Sprintf("Protocol(%d)", uint8(p))
	}
}

// CPUModel selects the processor model (§5.2).
type CPUModel uint8

const (
	// SimpleCPU is the in-order blocking model: one outstanding miss,
	// compute and misses fully serialized.
	SimpleCPU CPUModel = iota
	// DetailedCPU is the dynamically-scheduled model: multiple
	// outstanding misses within a reorder-buffer window.
	DetailedCPU
)

// String names the CPU model.
func (m CPUModel) String() string {
	if m == DetailedCPU {
		return "detailed"
	}
	return "simple"
}

// Config describes a timing simulation.
type Config struct {
	Protocol  Protocol
	Predictor predictor.Config // used when Protocol == Multicast; Nodes 0 inherits Nodes
	CPU       CPUModel

	// NewBank, when non-nil, overrides predictor-bank construction for
	// multicast runs: it must return one fresh, untrained predictor per
	// node. Registered custom policies reach the timing model this way;
	// the Predictor field still sizes the bank's node count for naming.
	NewBank func() []predictor.Predictor

	// Label, when non-empty, overrides Name() in reports — used when
	// NewBank carries a policy the Predictor config cannot describe.
	Label string

	Nodes        int
	Interconnect interconnect.Config
	Coherence    coherence.Config

	// L2Latency is the owner's cache lookup before responding (12 ns).
	L2Latency event.Time
	// MemLatency is the DRAM/directory access at the home node (80 ns).
	MemLatency event.Time

	// SimpleInstrPerNs is the perfect-cache retire rate of the simple
	// model (4 instructions/ns = 4 GIPS).
	SimpleInstrPerNs float64
	// DetailedInstrPerNs is the front-end rate of the detailed model
	// (2 GHz x 4-wide = 8 instructions/ns).
	DetailedInstrPerNs float64
	// ROBWindow is the detailed model's reorder-buffer size in
	// instructions (64).
	ROBWindow int
	// MSHRs bounds outstanding misses per node in the detailed model.
	MSHRs int

	// MaxAttempts bounds multicast retries: the attempt after
	// MaxAttempts-1 failures is a broadcast, which always succeeds.
	MaxAttempts int
}

// DefaultConfig returns the paper's Table 4 target system.
func DefaultConfig(p Protocol) Config {
	nodes := 16
	coh := coherence.DefaultConfig()
	coh.TrackBlockStats = false
	return Config{
		Protocol:           p,
		Predictor:          predictor.DefaultConfig(predictor.Group, nodes),
		CPU:                SimpleCPU,
		Nodes:              nodes,
		Interconnect:       interconnect.DefaultConfig(nodes),
		Coherence:          coh,
		L2Latency:          12 * event.Nanosecond,
		MemLatency:         80 * event.Nanosecond,
		SimpleInstrPerNs:   4,
		DetailedInstrPerNs: 8,
		ROBWindow:          64,
		MSHRs:              8,
		MaxAttempts:        4,
	}
}

// Name labels the configuration in reports.
func (c Config) Name() string {
	if c.Label != "" {
		return c.Label
	}
	switch c.Protocol {
	case Multicast:
		return "Multicast+" + c.Predictor.Name()
	default:
		return c.Protocol.String()
	}
}

// Result reports a timing run.
type Result struct {
	// RuntimeNs is the simulated execution time (last miss completion).
	RuntimeNs float64
	// Misses is the number of timed transactions.
	Misses uint64
	// EndpointBytes is total interconnect traffic: every delivered copy
	// of every request, forward, invalidation, reissue, data response and
	// writeback.
	EndpointBytes uint64
	// AvgMissLatencyNs is the mean issue-to-completion latency.
	AvgMissLatencyNs float64
	// Indirections counts misses that required a directory forward or at
	// least one multicast reissue.
	Indirections uint64
	// Retries counts multicast reissues (including repeat retries).
	Retries uint64
	// MaxOutstanding is the peak per-node outstanding misses observed.
	MaxOutstanding int
	// LatencyP50Ns, LatencyP90Ns and LatencyP99Ns are miss-latency
	// percentiles (5 ns resolution).
	LatencyP50Ns float64
	LatencyP90Ns float64
	LatencyP99Ns float64
}

// BytesPerMiss returns average endpoint traffic per miss.
func (r Result) BytesPerMiss() float64 {
	if r.Misses == 0 {
		return 0
	}
	return float64(r.EndpointBytes) / float64(r.Misses)
}

// IndirectionPercent returns the percent of misses that indirected.
func (r Result) IndirectionPercent() float64 {
	if r.Misses == 0 {
		return 0
	}
	return 100 * float64(r.Indirections) / float64(r.Misses)
}

// msgKind tags interconnect payloads.
type msgKind uint8

const (
	msgRequest msgKind = iota
	msgReissue
	msgForward // directory: home -> owner
	msgInval   // directory: home -> sharer
	msgData    // responder -> requester (72 B)
	msgDone    // home -> requester, dataless completion
	msgWriteback
)

// simMsg is a pooled protocol message: the interconnect message plus the
// payload fields the handlers need. Payload points back at the simMsg
// itself (a pointer, so storing it allocates nothing); the crossbar's
// OnRelease returns the whole thing to the free list after the last copy
// delivers.
type simMsg struct {
	msg     interconnect.Message
	kind    msgKind
	t       *txn
	attempt int
}

// txn is one in-flight miss transaction. Transactions live in a slab
// with one slot per timed record, so issuing a miss never allocates and
// a stale event can never observe a recycled transaction. A slot is
// filled when its miss issues: no event of a run refers to it before,
// and a reused slab still holds the last run's transactions.
type txn struct {
	node      *node
	rec       trace.Record
	issuedAt  event.Time
	attempts  int
	mask      nodeset.Set
	retried   bool
	completed bool

	// Current-attempt outcome, set at the ordering point.
	sufficient bool
	mi         coherence.MissInfo

	// dataFrom is the responder of a scheduled data send (dataEvt).
	dataFrom nodeset.NodeID
}

// node is one processor's stream state: its program order, from the
// run's job, and how far the run has got along it.
type node struct {
	id nodeset.NodeID
	stream

	next         int // first stream position not yet issued
	oldest       int // first stream position not yet completed
	inflight     int
	blks         []trace.Addr // addresses of in-flight misses (<= MSHRs)
	lastIssue    event.Time
	issuePending bool
}

// blkInflight reports whether an in-flight miss covers addr.
func (n *node) blkInflight(a trace.Addr) bool {
	for _, b := range n.blks {
		if b == a {
			return true
		}
	}
	return false
}

func (n *node) blkAdd(a trace.Addr) { n.blks = append(n.blks, a) }

func (n *node) blkRemove(a trace.Addr) {
	for i, b := range n.blks {
		if b == a {
			last := len(n.blks) - 1
			n.blks[i] = n.blks[last]
			n.blks = n.blks[:last]
			return
		}
	}
}

// sim is a run shell: one simulation run's state, which newSim builds
// and reset makes ready for another run (Shells).
type sim struct {
	cfg   Config
	loop  *event.Loop
	xbar  *interconnect.Crossbar
	coh   *coherence.System
	preds []predictor.Predictor
	// oracles is predictor.OracleSetters(preds), decided once per run.
	oracles []predictor.OracleSetter
	// recs are the timed records in trace order, shared with the run's
	// job.
	recs  []trace.Record
	nodes []*node
	txns  []txn

	// Long-lived event handlers, bound once so scheduling never
	// allocates a closure.
	issueEvt    event.ArgHandler
	reissueEvt  event.ArgHandler
	dirActEvt   event.ArgHandler
	completeEvt event.ArgHandler
	dataEvt     event.ArgHandler

	msgFree   []*simMsg
	latencies *stats.Histogram // 5ns buckets up to 4000ns

	tally
}

// tally is a run's statistics.
type tally struct {
	completed      uint64
	total          uint64
	latencySum     event.Time
	lastComplete   event.Time
	indirections   uint64
	retries        uint64
	maxOutstanding int
}

// latencyBucketNs is the latency histogram resolution.
const latencyBucketNs = 5

// ctxCheckStride bounds how many events (or warmup misses) are processed
// between cancellation checks, so cancellation is prompt on huge runs.
const ctxCheckStride = 4096

// Simulate replays the timed source after warming caches and predictors
// with the warm source (which may be nil), instantaneously, as the paper
// does with trace-based warmup (§5.2). The sources are read-only and may
// be shared across concurrent runs; a record whose requester is outside
// the system or whose kind is neither GETS nor GETX is refused with an
// error naming its region and index. On cancellation Simulate returns
// promptly with the context's error. It shares nothing with other runs:
// it runs a private Job on a shell of its own.
func Simulate(ctx context.Context, cfg Config, warm, timed Source) (Result, error) {
	return SimulateWarm(ctx, cfg, &Job{warm: warm, timed: timed}, nil)
}

// SimulateWarm is Simulate for runs that share their regions' Job and
// their shells: job's warm-up and timed streams are built by the first
// run that needs them and read by the others, and the run takes its
// shell from shells and hands it back when it completes (a nil free list
// builds a new shell). Its result equals Simulate's over job's regions.
func SimulateWarm(ctx context.Context, cfg Config, job *Job, shells *Shells) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := validate(cfg, job); err != nil {
		return Result{}, err
	}
	s := shells.get(cfg)
	if err := job.warmUp(ctx, s.coh, s.preds); err != nil {
		return Result{}, err
	}
	st, err := job.layout()
	if err != nil {
		return Result{}, err
	}
	s.start(st)
	res, err := s.finish(ctx)
	if err != nil {
		return Result{}, err
	}
	shells.put(s)
	return res, nil
}

// finish runs the started timed run to completion and reports it.
func (s *sim) finish(ctx context.Context) (Result, error) {
	for i := 0; s.loop.Step(); i++ {
		if i%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return Result{}, err
			}
		}
	}
	if s.completed != s.total {
		return Result{}, fmt.Errorf("sim: deadlock: %d/%d misses completed", s.completed, s.total)
	}
	res := Result{
		RuntimeNs:      s.lastComplete.Nanoseconds(),
		Misses:         s.completed,
		Indirections:   s.indirections,
		Retries:        s.retries,
		MaxOutstanding: s.maxOutstanding,
	}
	if s.completed > 0 {
		res.AvgMissLatencyNs = (s.latencySum / event.Time(s.completed)).Nanoseconds()
		res.LatencyP50Ns = float64(s.latencies.Quantile(0.50) * latencyBucketNs)
		res.LatencyP90Ns = float64(s.latencies.Quantile(0.90) * latencyBucketNs)
		res.LatencyP99Ns = float64(s.latencies.Quantile(0.99) * latencyBucketNs)
	}
	_, res.EndpointBytes = s.xbar.Stats()
	return res, nil
}

// validate reports why cfg cannot run over job's regions: a malformed
// Config is refused here, naming the field, instead of panicking in a
// constructor reset calls. A multicast run builds its bank from
// Predictor (unless NewBank is set), whose Nodes must be 0 or the
// system's node count.
func validate(cfg Config, job *Job) error {
	switch {
	case job == nil || job.timed == nil || job.timed.Len() == 0:
		return fmt.Errorf("sim: empty trace")
	case job.timed.Len() < 0:
		return fmt.Errorf("sim: timed source has length %d", job.timed.Len())
	case job.warm != nil && job.warm.Len() < 0:
		return fmt.Errorf("sim: warm source has length %d", job.warm.Len())
	case job.timed.Nodes() != cfg.Nodes:
		return fmt.Errorf("sim: trace has %d nodes, config %d", job.timed.Nodes(), cfg.Nodes)
	case job.warm != nil && job.warm.Nodes() != cfg.Nodes:
		return fmt.Errorf("sim: warm trace has %d nodes, config %d", job.warm.Nodes(), cfg.Nodes)
	case cfg.Nodes <= 0 || cfg.Nodes > nodeset.MaxNodes:
		return fmt.Errorf("sim: bad node count %d", cfg.Nodes)
	case cfg.SimpleInstrPerNs <= 0 || cfg.DetailedInstrPerNs <= 0:
		return fmt.Errorf("sim: instruction rates must be positive")
	case cfg.MSHRs <= 0 || cfg.ROBWindow <= 0:
		return fmt.Errorf("sim: MSHRs and ROBWindow must be positive")
	case cfg.MaxAttempts < 2:
		return fmt.Errorf("sim: need at least 2 attempts (initial + broadcast)")
	case cfg.Interconnect.Nodes < cfg.Nodes || cfg.Interconnect.Nodes > nodeset.MaxNodes:
		return fmt.Errorf("sim: Interconnect.Nodes is %d, want %d..%d", cfg.Interconnect.Nodes, cfg.Nodes, nodeset.MaxNodes)
	case !(cfg.Interconnect.BytesPerNs > 0):
		return fmt.Errorf("sim: Interconnect.BytesPerNs is %v, want a positive bandwidth", cfg.Interconnect.BytesPerNs)
	}
	if err := cohConfig(cfg).L2.Validate(); err != nil {
		return fmt.Errorf("sim: Coherence.L2: %w", err)
	}
	if cfg.Protocol == Multicast && cfg.NewBank == nil {
		pc := cfg.Predictor
		if pc.Nodes != 0 && pc.Nodes != cfg.Nodes {
			return fmt.Errorf("sim: Predictor.Nodes is %d, but the system has %d nodes", pc.Nodes, cfg.Nodes)
		}
		pc.Nodes = cfg.Nodes
		if err := pc.Validate(); err != nil {
			return fmt.Errorf("sim: Predictor: %w", err)
		}
	}
	return nil
}

// cohConfig is the coherence oracle configuration a run of cfg uses.
func cohConfig(cfg Config) coherence.Config {
	cohCfg := cfg.Coherence
	if cohCfg.Nodes == 0 {
		cohCfg = coherence.DefaultConfig()
		cohCfg.TrackBlockStats = false
	}
	cohCfg.Nodes = cfg.Nodes
	return cohCfg
}

// newSim builds a shell ready for a run of cfg (see reset).
func newSim(cfg Config) *sim {
	loop := &event.Loop{}
	s := &sim{
		loop:      loop,
		xbar:      interconnect.New(cfg.Interconnect, loop),
		latencies: stats.NewHistogram(4000 / latencyBucketNs),
	}
	s.issueEvt = func(now event.Time, arg any) {
		n := arg.(*node)
		n.issuePending = false
		s.issue(n, now)
		s.tryIssue(n)
	}
	s.reissueEvt = func(_ event.Time, arg any) { s.reissue(arg.(*txn)) }
	s.dirActEvt = func(_ event.Time, arg any) { s.directoryAct(arg.(*txn)) }
	s.completeEvt = func(now event.Time, arg any) { s.complete(arg.(*txn), now) }
	s.dataEvt = func(_ event.Time, arg any) {
		t := arg.(*txn)
		s.sendData(t.dataFrom, t)
	}
	s.xbar.OnOrdered = s.onOrdered
	s.xbar.OnDeliver = s.onDeliver
	s.xbar.OnRelease = s.releaseMsg
	s.reset(cfg)
	return s
}

// reset makes the shell ready for a run of cfg: an empty event loop,
// idle links, zeroed statistics and an untrained predictor bank from
// cfg.NewBank or predictor.NewBank. The oracle keeps its state for the
// run's warm-up to reset or restore, and its writeback hook stays off
// until start; one whose configuration is not cfg's goes to
// coherence.Recycle and is replaced.
func (s *sim) reset(cfg Config) {
	s.cfg = cfg
	s.loop.Reset()
	s.xbar.Reset(cfg.Interconnect)
	if cc := cohConfig(cfg); s.coh == nil || s.coh.Config() != cc {
		coherence.Recycle(s.coh)
		s.coh = coherence.NewSystem(cc)
	}
	s.coh.OnWriteback = nil
	s.preds, s.oracles = nil, nil
	if cfg.Protocol == Multicast {
		if cfg.NewBank != nil {
			s.preds = cfg.NewBank()
		} else {
			pc := cfg.Predictor
			pc.Nodes = cfg.Nodes
			s.preds = predictor.NewBank(pc)
		}
		s.oracles = predictor.OracleSetters(s.preds)
	}
	s.latencies.Reset()
	s.tally = tally{}
}

// getMsg pops a pooled message or grows the pool.
func (s *sim) getMsg() *simMsg {
	if n := len(s.msgFree); n > 0 {
		sm := s.msgFree[n-1]
		s.msgFree = s.msgFree[:n-1]
		return sm
	}
	return &simMsg{}
}

// releaseMsg recycles a message once the crossbar delivered every copy.
func (s *sim) releaseMsg(msg *interconnect.Message) {
	sm := msg.Payload.(*simMsg)
	sm.t = nil
	s.msgFree = append(s.msgFree, sm)
}

// send injects a pooled protocol message into the crossbar.
func (s *sim) send(kind msgKind, t *txn, attempt int, from nodeset.NodeID, to nodeset.Set, bytes int) {
	sm := s.getMsg()
	sm.kind, sm.t, sm.attempt = kind, t, attempt
	sm.msg = interconnect.Message{From: from, To: to, Bytes: bytes, Payload: sm}
	s.xbar.Send(&sm.msg)
}

// start begins the timed run over st: it installs the oracle's
// writeback hook, points each node at its stream and schedules each
// node's first miss. The hook goes in only now because warm-up is
// instantaneous (§5.2): a dirty eviction during warm-up must send no
// writeback.
func (s *sim) start(st *streams) {
	s.coh.OnWriteback = s.writeback
	s.recs = st.recs
	s.total = uint64(len(st.recs))
	if cap(s.txns) < len(st.recs) {
		s.txns = make([]txn, len(st.recs))
	}
	s.txns = s.txns[:len(st.recs)]
	for len(s.nodes) < len(st.nodes) {
		s.nodes = append(s.nodes, &node{})
	}
	s.nodes = s.nodes[:len(st.nodes)]
	for i, n := range s.nodes {
		*n = node{id: nodeset.NodeID(i), stream: st.nodes[i], blks: n.blks[:0]}
		s.tryIssue(n)
	}
}

// writeback charges a dirty eviction's data message to the home node.
func (s *sim) writeback(from nodeset.NodeID, a trace.Addr) {
	home := s.coh.Home(a)
	if home == from {
		return // local writeback never crosses the interconnect
	}
	s.send(msgWriteback, nil, 0, from, nodeset.Single(home), protocol.DataBytes)
}

// gapTime converts an instruction gap to compute time at the given rate.
func gapTime(gap uint32, instrPerNs float64) event.Time {
	return event.Time(float64(gap) / instrPerNs * float64(event.Nanosecond))
}

// tryIssue schedules the node's next miss if the processor model allows.
func (s *sim) tryIssue(n *node) {
	if n.issuePending || n.next >= len(n.idx) {
		return
	}
	rec := &s.recs[n.idx[n.next]]
	var at event.Time
	switch s.cfg.CPU {
	case SimpleCPU:
		// Blocking core: one outstanding miss; the gap's instructions
		// execute after the previous miss resolves.
		if n.inflight > 0 {
			return
		}
		at = s.loop.Now() + gapTime(rec.Gap, s.cfg.SimpleInstrPerNs)
	case DetailedCPU:
		if n.inflight >= s.cfg.MSHRs {
			return
		}
		if n.blkInflight(rec.Addr) {
			return // same-block request must wait (MSHR merge)
		}
		// The reorder buffer bounds how far the front end runs ahead of
		// the oldest unresolved miss.
		if n.inflight > 0 && n.pos[n.next]-n.pos[n.oldest] >= uint64(s.cfg.ROBWindow) {
			return
		}
		at = n.lastIssue + gapTime(rec.Gap, s.cfg.DetailedInstrPerNs)
		if now := s.loop.Now(); at < now {
			at = now
		}
	}
	n.issuePending = true
	s.loop.AtArg(at, s.issueEvt, n)
}

// issue sends the node's next miss into the memory system.
func (s *sim) issue(n *node, now event.Time) {
	gi := n.idx[n.next]
	t := &s.txns[gi]
	*t = txn{node: n, rec: s.recs[gi], issuedAt: now}
	n.next++
	n.inflight++
	if n.inflight > s.maxOutstanding {
		s.maxOutstanding = n.inflight
	}
	n.lastIssue = now
	n.blkAdd(t.rec.Addr)
	t.mask = s.initialMask(t)
	s.sendAttempt(t)
}

// initialMask picks the first attempt's destination set per protocol.
func (s *sim) initialMask(t *txn) nodeset.Set {
	req := nodeset.NodeID(t.rec.Requester)
	home := s.coh.Home(t.rec.Addr)
	switch s.cfg.Protocol {
	case Snooping:
		return nodeset.All(s.cfg.Nodes)
	case Directory:
		return coherence.MinimalSet(req, home)
	default:
		q := predictor.Query{
			Addr:      t.rec.Addr,
			PC:        t.rec.PC,
			Requester: req,
			Home:      home,
			Kind:      t.rec.Kind,
		}
		if s.oracles != nil && s.oracles[req] != nil {
			s.oracles[req].SetOracle(s.coh.Peek(t.rec).Needed(req, t.rec.Kind))
		}
		return s.preds[req].Predict(q).Union(q.MinimalSet())
	}
}

// sendAttempt multicasts the current attempt from the requester. Even
// when nobody else needs a copy (the requester is its own home and the
// mask is minimal), the request still travels to the switch: the total
// order is what makes the protocols correct, so every request must be
// ordered.
func (s *sim) sendAttempt(t *txn) {
	t.attempts++
	req := nodeset.NodeID(t.rec.Requester)
	to := t.mask.Remove(req)
	if to.Empty() {
		to = nodeset.Single(req) // ordering echo only
	}
	s.send(msgRequest, t, t.attempts, req, to, protocol.ControlBytes)
}

// onOrdered is the total-order point: sufficiency is decided and state
// transitions commit here.
func (s *sim) onOrdered(now event.Time, seq uint64, msg *interconnect.Message) {
	sm := msg.Payload.(*simMsg)
	if sm.kind != msgRequest && sm.kind != msgReissue {
		return
	}
	t := sm.t
	if sm.attempt != t.attempts || t.completed {
		return // stale attempt already superseded
	}
	req := nodeset.NodeID(t.rec.Requester)
	mi := s.coh.Peek(t.rec)
	needed := mi.Needed(req, t.rec.Kind)
	switch s.cfg.Protocol {
	case Multicast:
		t.sufficient = t.mask.Superset(needed)
	default:
		// Broadcast snooping always covers the needed set; the directory
		// protocol's home node forwards with authoritative state.
		t.sufficient = true
	}
	half := s.cfg.Interconnect.Traversal / 2
	if !t.sufficient {
		// The home node reissues when its copy arrives; when the
		// requester is its own home, the directory access is local.
		if mi.Home == req {
			s.loop.AtArg(now+half+s.cfg.MemLatency, s.reissueEvt, t)
		}
		return
	}
	t.mi = s.coh.Apply(t.rec)
	if s.cfg.Protocol == Directory && t.mi.DirIndirection(req) {
		s.indirections++
	}
	if s.cfg.Protocol == Directory {
		// When the requester is its own home, the directory access
		// happens locally instead of via a delivered request copy.
		if t.mi.Home == req {
			s.loop.AtArg(now+half+s.cfg.MemLatency, s.dirActEvt, t)
		}
		return
	}
	// Snooping and sufficient multicast: the owner responds on delivery.
	// Two cases never produce a delivery to resolve the miss and are
	// completed from the ordering point instead.
	_, fromMem, none := t.mi.Responder(req)
	switch {
	case none:
		// Dataless upgrade: the requester learns the outcome when its own
		// request would reach it on the ordered network.
		s.loop.AtArg(now+half, s.completeEvt, t)
	case fromMem && t.mi.Home == req:
		// The requester is home: a local memory access supplies the data.
		s.loop.AtArg(now+half+s.cfg.MemLatency, s.completeEvt, t)
	}
}

// onDeliver handles message arrival at one destination.
func (s *sim) onDeliver(now event.Time, dst nodeset.NodeID, msg *interconnect.Message) {
	sm := msg.Payload.(*simMsg)
	switch sm.kind {
	case msgRequest, msgReissue:
		s.deliverRequest(now, dst, sm)
	case msgForward:
		// Directory forward reached the owner: respond with data.
		t := sm.t
		t.dataFrom = dst
		s.loop.AfterArg(s.cfg.L2Latency, s.dataEvt, t)
	case msgInval:
		// Sharer invalidation: state already committed at ordering; the
		// message only costs bandwidth on the totally-ordered network.
	case msgData, msgDone:
		t := sm.t
		if s.preds != nil && sm.kind == msgData {
			responder, fromMem, none := t.mi.Responder(nodeset.NodeID(t.rec.Requester))
			if !none {
				s.preds[dst].TrainResponse(predictor.Response{
					Addr:       t.rec.Addr,
					PC:         t.rec.PC,
					Responder:  responder,
					FromMemory: fromMem,
				})
			}
		}
		s.complete(t, now)
	case msgWriteback:
		// Pure bandwidth.
	}
}

// deliverRequest handles a request or reissue copy arriving at dst.
func (s *sim) deliverRequest(now event.Time, dst nodeset.NodeID, sm *simMsg) {
	t := sm.t
	req := nodeset.NodeID(t.rec.Requester)
	if dst == req {
		return // the requester's own copy is just the ordering echo
	}
	if s.preds != nil {
		s.preds[dst].TrainRequest(predictor.External{
			Addr:      t.rec.Addr,
			PC:        t.rec.PC,
			Requester: req,
			Kind:      t.rec.Kind,
		})
	}
	if sm.attempt != t.attempts || t.completed {
		return // superseded attempt
	}
	home := s.coh.Home(t.rec.Addr)
	if !t.sufficient {
		// Only the home reacts to an insufficient attempt: after its
		// directory access it reissues with the improved set (§4.1).
		if dst == home && s.cfg.Protocol == Multicast {
			s.loop.AfterArg(s.cfg.MemLatency, s.reissueEvt, t)
		}
		return
	}
	switch s.cfg.Protocol {
	case Directory:
		if dst == home {
			s.loop.AfterArg(s.cfg.MemLatency, s.dirActEvt, t)
		}
	default:
		responder, fromMem, none := t.mi.Responder(req)
		if none {
			return // completion already scheduled at ordering
		}
		if fromMem && dst == home {
			t.dataFrom = home
			s.loop.AfterArg(s.cfg.MemLatency, s.dataEvt, t)
		} else if !fromMem && dst == responder {
			t.dataFrom = responder
			s.loop.AfterArg(s.cfg.L2Latency, s.dataEvt, t)
		}
	}
}

// directoryAct is the home node's action after its directory access:
// respond from memory, forward to the owner, and invalidate sharers.
// When the requester is its own home, the response is local.
func (s *sim) directoryAct(t *txn) {
	if t.completed {
		return
	}
	req := nodeset.NodeID(t.rec.Requester)
	home := s.coh.Home(t.rec.Addr)
	responder, fromMem, none := t.mi.Responder(req)
	switch {
	case none && home == req:
		s.complete(t, s.loop.Now())
	case none:
		s.send(msgDone, t, t.attempts, home, nodeset.Single(req), protocol.ControlBytes)
	case fromMem && home == req:
		s.complete(t, s.loop.Now())
	case fromMem:
		s.sendData(home, t)
	default:
		s.send(msgForward, t, t.attempts, home, nodeset.Single(responder), protocol.ControlBytes)
	}
	if t.rec.Kind == trace.GetExclusive {
		invals := t.mi.Sharers.Remove(req).Remove(t.mi.Owner).Remove(home)
		if !invals.Empty() {
			s.send(msgInval, t, t.attempts, home, invals, protocol.ControlBytes)
		}
	}
}

// reissue is the home directory's retry of an insufficient multicast: the
// improved destination set reflects the owner and sharers at snapshot
// time, but a racing request can still invalidate it before the reissue
// is ordered. The MaxAttempts-th attempt broadcasts.
func (s *sim) reissue(t *txn) {
	if t.completed {
		return
	}
	s.retries++
	if !t.retried {
		t.retried = true
		s.indirections++
	}
	req := nodeset.NodeID(t.rec.Requester)
	home := s.coh.Home(t.rec.Addr)
	if s.preds != nil {
		s.preds[req].TrainRetry(predictor.Retry{
			Addr:   t.rec.Addr,
			PC:     t.rec.PC,
			Needed: s.coh.Peek(t.rec).Needed(req, t.rec.Kind),
		})
	}
	t.attempts++
	if t.attempts >= s.cfg.MaxAttempts {
		t.mask = nodeset.All(s.cfg.Nodes)
	} else {
		t.mask = s.coh.Peek(t.rec).Needed(req, t.rec.Kind).Add(home)
	}
	to := t.mask.Remove(req)
	if to.Empty() {
		// The requester is its own home and nobody else needs to see the
		// request anymore (e.g. the owner wrote back in the meantime):
		// satisfy it locally.
		t.sufficient = true
		t.mi = s.coh.Apply(t.rec)
		s.loop.AfterArg(s.cfg.MemLatency, s.completeEvt, t)
		return
	}
	s.send(msgReissue, t, t.attempts, home, to, protocol.ControlBytes)
}

// sendData sends the 72-byte data response to the requester.
func (s *sim) sendData(from nodeset.NodeID, t *txn) {
	if t.completed {
		return
	}
	s.send(msgData, t, t.attempts, from, nodeset.Single(nodeset.NodeID(t.rec.Requester)), protocol.DataBytes)
}

// complete retires a transaction and unblocks the node's stream.
func (s *sim) complete(t *txn, now event.Time) {
	if t.completed {
		return
	}
	t.completed = true
	n := t.node
	n.inflight--
	n.blkRemove(t.rec.Addr)
	// Only issued positions can be complete: a slot past next may hold a
	// transaction of the shell's last run.
	for n.oldest < n.next && s.txns[n.idx[n.oldest]].completed {
		n.oldest++
	}
	s.completed++
	lat := now - t.issuedAt
	s.latencySum += lat
	s.latencies.Add(int(lat / (latencyBucketNs * event.Nanosecond)))
	if now > s.lastComplete {
		s.lastComplete = now
	}
	s.tryIssue(n)
}
