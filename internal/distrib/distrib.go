// Package distrib turns a sweep definition into a network service: a
// coordinator that owns the sweep plan and a fleet of workers that lease
// cell ranges from it over HTTP/JSON, execute them through the ordinary
// facade runners, and stream the resulting JSONL observation records
// back.
//
// The protocol leans entirely on the plan invariants PR 4 established:
// every party computes the plan from the same serializable SweepDef
// (destset.SweepDef), so the plan fingerprint is the handshake — a
// worker presenting a different fingerprint is refused, never silently
// mixed in — and cell indices are a shared address space, so a lease is
// just a range [lo, hi) of plan indices. Leases carry deadlines renewed
// by heartbeats; a worker that dies or goes silent loses its lease and
// the range is re-queued for another worker (preferring one that has not
// already failed it). Double completions — a slow worker finishing after
// its expired lease was re-run elsewhere — are deduplicated
// deterministically: the first valid completion of a range wins and
// later ones are acknowledged but discarded.
//
// The coordinator itself holds no observation records: every accepted
// upload is streamed to a content-addressed spill file (spill.go), so
// residency is O(open leases) regardless of sweep size. Uploads arrive
// in plan order and tasks partition the plan in order, so the final
// output is the merged manifest followed by the spills concatenated in
// task order, each checked whole as a result record before it is copied
// — byte-identical to what the same sweep writes in one process at
// parallelism 1, the invariant that makes the whole service testable
// end to end. With a -state-dir, the lease table and every transition
// after it are also appended to one CRC-guarded log (wal.go): a
// coordinator killed mid-sweep and restarted over the same state dir
// re-adopts completed ranges, requeues in-flight leases, and resumes
// the same sweep under the same plan fingerprint.
package distrib

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"destset"
)

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrPlanMismatch means a request presented a plan fingerprint other
	// than the coordinator's — a worker built from a different sweep
	// definition (or binary). Refused, never reconciled.
	ErrPlanMismatch = errors.New("distrib: plan fingerprint mismatch")
	// ErrUnknownLease means a request named a lease id this coordinator
	// never granted.
	ErrUnknownLease = errors.New("distrib: unknown lease")
	// ErrLeaseGone means the lease existed but is no longer current: it
	// expired and its range was re-queued (and possibly re-leased).
	ErrLeaseGone = errors.New("distrib: lease no longer current")
	// ErrUnknownDataset means a dataset fetch named a content key this
	// sweep does not replay.
	ErrUnknownDataset = errors.New("distrib: unknown dataset key")
	// ErrBadRequest means the request itself was at fault: a lease
	// request without a worker name, or an upload whose records do not
	// parse or do not cover exactly the leased range. Any other failure
	// of a coordinator method is the coordinator's own, such as a spill
	// file it cannot write.
	ErrBadRequest = errors.New("distrib: bad request")
)

// Config tunes a Coordinator.
type Config struct {
	// Def is the sweep to distribute. It must validate, and — like any
	// serializable def — carry only Name- or Params-based workloads.
	Def destset.SweepDef
	// ChunkSize is how many consecutive plan cells one lease covers;
	// <= 0 means 1. Smaller chunks retry at finer granularity, larger
	// ones amortize the per-lease round trip.
	ChunkSize int
	// LeaseTTL is how long a lease lives without a heartbeat; <= 0 means
	// 30s. Workers heartbeat at TTL/3.
	LeaseTTL time.Duration
	// MaxAttempts bounds how often one range may be granted before the
	// coordinator declares the sweep failed; <= 0 means 5.
	MaxAttempts int
	// StateDir, when non-empty, makes the coordinator crash-safe: spill
	// files live under it, the lease table and every transition after
	// it are logged to its wal.log, and a coordinator restarted over the
	// same dir resumes the sweep instead of restarting it. Empty means
	// ephemeral — spills go to a private temp dir removed by Close, and
	// nothing survives the process.
	StateDir string
	// DatasetDir, when non-empty, is where the coordinator finds — or
	// materializes on first fetch — the sweep's content-addressed
	// dataset files for workers fetching over the wire
	// (GET /v1/dataset/{key}). Point it at a warm dataset directory and
	// serving is a plain file stream; leave files missing and the
	// coordinator generates and spills them on demand. Empty means
	// fetched datasets are spilled next to the coordinator's other
	// state (the spill dir).
	DatasetDir string
	// Now overrides the clock (tests); nil means time.Now.
	Now func() time.Time
	// Logf, when non-nil, receives live progress lines (grants,
	// completions, expirations).
	Logf func(format string, args ...any)
	// Results, when non-nil, is the coordinator's result store: cells
	// the store can already serve are pre-marked complete at plan build
	// — never leased to any worker — and every accepted upload is
	// spilled back into the store, so a coordinator restarted over the
	// same sweep (or a later sweep sharing cells with this one) resumes
	// warm instead of recomputing.
	Results *destset.ResultStore
}

// taskState is one lease range's lifecycle position.
type taskState uint8

const (
	taskPending taskState = iota // queued, waiting for a worker
	taskLeased                   // granted, deadline running
	taskDone                     // first valid completion accepted
)

// task is one contiguous range of plan cell indices [lo, hi) — the unit
// of leasing, retry and completion. Tasks partition the plan: every
// cell belongs to exactly one task, and tasks are ordered by lo.
type task struct {
	lo, hi   int
	state    taskState
	attempts int // grants so far
	// leaseID/worker/deadline describe the current grant (state
	// taskLeased).
	leaseID  string
	worker   string
	deadline time.Time
	// lastFailed is the worker whose lease over this range last expired
	// or failed; re-grants prefer a different worker.
	lastFailed string
	// spill names the completed range's spill file under the state's
	// spill dir (state taskDone); cached marks ranges served by the
	// result store rather than computed by a worker.
	spill  string
	cached bool
}

// maxCachedRun caps how many store-served cells one synthesized spill
// covers, bounding build-time residency on warm resumes.
const maxCachedRun = 1024

// Coordinator owns one sweep: the plan, the lease queue and the spilled
// results. All methods are safe for concurrent use; the HTTP handlers in
// server.go are thin wrappers over them.
type Coordinator struct {
	cfg      Config
	def      destset.SweepDef
	plan     *destset.SweepPlan
	datasets []destset.SweepDataset
	cellOf   func(raw []byte) (int, error) // attributes an uploaded record to its plan cell
	// wire indexes the sweep's datasets by content key for the fetch
	// endpoint; dsetKeys preserves announcement order.
	wire     map[string]*wireDataset
	dsetKeys []string

	// dsBytes counts dataset bytes served over GET /v1/dataset; HTTP
	// handlers write it outside mu.
	dsBytes atomic.Int64

	mu      sync.Mutex
	st      *walState
	tasks   []*task
	pending []int // task indices, front = next granted
	// leased holds the currently-granted task indices, so lazy expiry
	// scans O(outstanding leases), not O(all tasks).
	leased      map[int]bool
	leases      map[string]int // lease id -> task index, kept for the sweep's lifetime
	nextLease   int
	doneTasks   int
	doneCells   int
	cachedCells int
	leasedCells int
	draining    bool
	stateWarned bool
	failed      error
	done        chan struct{} // closed when all tasks complete or the sweep fails
	workers     map[string]time.Time
}

// NewCoordinator validates the definition, computes the plan and splits
// it into lease ranges — or, when cfg.StateDir holds a prior
// incarnation's log for the same plan, resumes it: the logged events are
// replayed over the logged lease table, completed ranges are re-adopted
// after their spill files revalidate, and in-flight leases are
// requeued.
// It fails on defs whose cells are not uniquely labeled — observation
// records name cells by (label, workload, seed), and ambiguous labels
// would make uploads unattributable (see SweepPlan.RecordIndex).
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = 1
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 5
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	plan, err := cfg.Def.Plan()
	if err != nil {
		return nil, err
	}
	datasets, err := cfg.Def.Datasets()
	if err != nil {
		return nil, err
	}
	cellOf, err := plan.RecordIndex()
	if err != nil {
		return nil, err
	}
	wire := make(map[string]*wireDataset, len(datasets))
	dsetKeys := make([]string, 0, len(datasets))
	for _, sd := range datasets {
		key, err := sd.ContentKey()
		if err != nil {
			return nil, err
		}
		wire[key] = &wireDataset{sd: sd}
		dsetKeys = append(dsetKeys, key)
	}
	c := &Coordinator{
		cfg:      cfg,
		def:      cfg.Def,
		plan:     plan,
		datasets: datasets,
		cellOf:   cellOf,
		wire:     wire,
		dsetKeys: dsetKeys,
		leased:   make(map[int]bool),
		leases:   make(map[string]int),
		done:     make(chan struct{}),
		workers:  make(map[string]time.Time),
	}

	var tbl *leaseTable
	var events []walEvent
	if cfg.StateDir != "" {
		c.st, tbl, events, err = openWALState(cfg.StateDir)
	} else {
		c.st, err = newEphemeralState()
	}
	if err != nil {
		return nil, err
	}
	if tbl != nil {
		err = c.resume(tbl, events)
	} else {
		err = c.build()
	}
	if err != nil {
		c.st.close()
		return nil, err
	}

	for _, t := range c.tasks {
		if t.state == taskDone {
			c.doneTasks++
			c.doneCells += t.hi - t.lo
			if t.cached {
				c.cachedCells += t.hi - t.lo
			}
		}
	}
	if c.cachedCells > 0 {
		c.logf("result store served %d/%d cells; %d to compute",
			c.cachedCells, plan.Len(), plan.Len()-c.doneCells)
	}
	// Durable truth at birth: a new log that opens with the (re)built
	// lease table. A failure here disables durability but not the sweep.
	if err := c.st.begin(c.tableLocked()); err != nil {
		c.stateWarned = true
		c.logf("%v", err)
	}
	if c.failed != nil || c.doneTasks == len(c.tasks) {
		close(c.done)
	}
	return c, nil
}

// build lays out a fresh sweep's tasks: contiguous runs of result-store
// hits become completed ranges (their spills synthesized from stored
// lines), the misses between them become chunked pending lease ranges.
func (c *Coordinator) build() error {
	plan := c.plan
	var hit []bool
	if c.cfg.Results != nil {
		hit = make([]bool, plan.Len())
		for i, cell := range plan.Cells() {
			if _, ok := c.cfg.Results.CellLines(c.def.Kind, cell.Fingerprint); ok {
				hit[i] = true
			}
		}
	}
	for lo := 0; lo < plan.Len(); {
		if hit != nil && hit[lo] {
			hi := lo + 1
			for hi < plan.Len() && hi-lo < maxCachedRun && hit[hi] {
				hi++
			}
			name, err := c.spillStored(lo, hi)
			if err != nil {
				return err
			}
			c.tasks = append(c.tasks, &task{lo: lo, hi: hi, state: taskDone, cached: true, spill: name})
			lo = hi
			continue
		}
		hi := lo + 1
		for hi < plan.Len() && hi-lo < c.cfg.ChunkSize && !(hit != nil && hit[hi]) {
			hi++
		}
		c.pending = append(c.pending, len(c.tasks))
		c.tasks = append(c.tasks, &task{lo: lo, hi: hi})
		lo = hi
	}
	return nil
}

// spillStored synthesizes the spill file for a range fully served by
// the result store.
func (c *Coordinator) spillStored(lo, hi int) (string, error) {
	perCell := make([][][]byte, hi-lo)
	for i := lo; i < hi; i++ {
		lines, ok := c.cfg.Results.CellLines(c.def.Kind, c.plan.Cell(i).Fingerprint)
		if !ok {
			return "", fmt.Errorf("distrib: result store no longer serves cell %d", i)
		}
		perCell[i-lo] = lines
	}
	return writeSpill(c.st.spillDir, c.def.Kind, c.plan.Fingerprint(), lo, hi, perCell)
}

// resume rebuilds the lease table a prior incarnation logged, replays
// the events logged after it, and reconciles:
// in-flight leases are requeued to the front (their grants already
// counted against the attempt budget; surviving workers' heartbeats get
// ErrLeaseGone, but a completion they upload for the old lease id is
// still adopted), completed ranges are kept only if their spill files
// revalidate, and pending ranges the result store can now serve whole
// are completed without leasing.
func (c *Coordinator) resume(tbl *leaseTable, events []walEvent) error {
	fp := c.plan.Fingerprint()
	if tbl.Plan != fp || tbl.Kind != c.def.Kind {
		return fmt.Errorf("distrib: state dir %q holds a %s sweep with plan %s, not this %s sweep (plan %s) — resume must use the same def",
			c.cfg.StateDir, tbl.Kind, tbl.Plan, c.def.Kind, fp)
	}
	next := 0
	for ti, tc := range tbl.Tasks {
		if tc.Lo != next || tc.Hi <= tc.Lo || tc.Hi > c.plan.Len() {
			return fmt.Errorf("%w: lease table task %d covers [%d,%d), want a partition resuming at %d",
				ErrStateCorrupt, ti, tc.Lo, tc.Hi, next)
		}
		next = tc.Hi
		t := &task{lo: tc.Lo, hi: tc.Hi, attempts: tc.Attempts, cached: tc.Cached,
			lastFailed: tc.LastFailed, spill: tc.Spill}
		switch tc.State {
		case "pending":
			t.state = taskPending
		case "leased":
			t.state = taskLeased
			t.leaseID, t.worker = tc.Lease, tc.Worker
			c.leased[ti] = true
			c.leases[tc.Lease] = ti
		case "done":
			t.state = taskDone
		default:
			return fmt.Errorf("%w: lease table task %d in unknown state %q", ErrStateCorrupt, ti, tc.State)
		}
		c.tasks = append(c.tasks, t)
	}
	if next != c.plan.Len() {
		return fmt.Errorf("%w: lease table tasks cover %d of %d plan cells", ErrStateCorrupt, next, c.plan.Len())
	}
	for _, ti := range tbl.Pending {
		if ti < 0 || ti >= len(c.tasks) || c.tasks[ti].state != taskPending {
			return fmt.Errorf("%w: lease table queues task %d, which is not pending", ErrStateCorrupt, ti)
		}
		c.pending = append(c.pending, ti)
	}
	if tbl.Failed != "" {
		c.failed = errors.New(tbl.Failed)
	}
	for i, ev := range events {
		if err := c.applyLocked(ev); err != nil {
			return fmt.Errorf("%w: logged event %d (%s): %v", ErrStateCorrupt, i, ev.E, err)
		}
	}

	// Reconcile. The prior incarnation's deadlines died with it: requeue
	// every in-flight lease, front of the queue, attempts unchanged.
	requeued := 0
	for ti := len(c.tasks) - 1; ti >= 0; ti-- {
		t := c.tasks[ti]
		if t.state != taskLeased {
			continue
		}
		t.state = taskPending
		t.leaseID, t.worker, t.deadline = "", "", time.Time{}
		delete(c.leased, ti)
		c.pending = append([]int{ti}, c.pending...)
		requeued++
	}
	// Trust no spill unseen: a completed range stays completed only if
	// its file still validates whole.
	demoted := 0
	for ti := len(c.tasks) - 1; ti >= 0; ti-- {
		t := c.tasks[ti]
		if t.state != taskDone {
			continue
		}
		if err := copySpill(io.Discard, c.st.spillDir, t.spill, c.def.Kind, fp, t.lo, t.hi); err != nil {
			c.logf("spill for cells [%d,%d) failed validation; recomputing: %v", t.lo, t.hi, err)
			t.state, t.spill, t.cached = taskPending, "", false
			c.pending = append([]int{ti}, c.pending...)
			demoted++
		}
	}
	// Ranges the result store can serve whole — typically uploads whose
	// complete event was lost to the crash but whose cells were already
	// store-spilled — complete without leasing.
	adopted := 0
	if c.cfg.Results != nil && c.failed == nil {
		kept := c.pending[:0]
		for _, ti := range c.pending {
			t := c.tasks[ti]
			if name, err := c.spillStored(t.lo, t.hi); err == nil {
				t.state, t.cached, t.spill = taskDone, true, name
				adopted++
				continue
			}
			kept = append(kept, ti)
		}
		c.pending = kept
	}
	doneCells := 0
	for _, t := range c.tasks {
		if t.state == taskDone {
			doneCells += t.hi - t.lo
		}
	}
	c.logf("resumed sweep %s from %s (epoch %d): %d/%d cells done, %d lease(s) requeued, %d range(s) demoted, %d adopted from result store",
		fp, c.cfg.StateDir, c.st.epoch, doneCells, c.plan.Len(), requeued, demoted, adopted)
	return nil
}

// applyLocked replays one logged event onto the logged lease table.
// Replay is strict: an event that does not apply cleanly means the
// state dir is corrupt, and recovery refuses rather than guesses.
func (c *Coordinator) applyLocked(ev walEvent) error {
	if ev.E == "sweepfail" {
		if ev.Reason == "" {
			return errors.New("sweepfail without a reason")
		}
		c.failed = errors.New(ev.Reason)
		return nil
	}
	if ev.Task < 0 || ev.Task >= len(c.tasks) {
		return fmt.Errorf("task %d out of range", ev.Task)
	}
	t := c.tasks[ev.Task]
	withdraw := func() bool {
		for i, ti := range c.pending {
			if ti == ev.Task {
				c.pending = append(c.pending[:i], c.pending[i+1:]...)
				return true
			}
		}
		return false
	}
	switch ev.E {
	case "grant":
		if t.state != taskPending || !withdraw() {
			return errors.New("grant of a task that was not queued")
		}
		t.state = taskLeased
		t.attempts = ev.Attempts
		t.leaseID, t.worker = ev.Lease, ev.Worker
		c.leased[ev.Task] = true
		c.leases[ev.Lease] = ev.Task
	case "expire", "fail":
		if t.state != taskLeased || t.leaseID != ev.Lease {
			return fmt.Errorf("%s of a lease that is not current", ev.E)
		}
		t.lastFailed = ev.Worker
		t.state = taskPending
		t.leaseID, t.worker, t.deadline = "", "", time.Time{}
		delete(c.leased, ev.Task)
		c.pending = append([]int{ev.Task}, c.pending...)
	case "complete":
		if t.state == taskDone {
			return errors.New("complete of an already-completed task")
		}
		if ev.Spill == "" {
			return errors.New("complete without a spill file")
		}
		if t.state == taskLeased {
			delete(c.leased, ev.Task)
		} else {
			withdraw()
		}
		t.state, t.spill, t.cached = taskDone, ev.Spill, false
		t.leaseID, t.worker, t.deadline = "", "", time.Time{}
	default:
		return fmt.Errorf("unknown event %q", ev.E)
	}
	return nil
}

// tableLocked captures the lease table for the log's first frame.
func (c *Coordinator) tableLocked() *leaseTable {
	tbl := &leaseTable{
		Plan:    c.plan.Fingerprint(),
		Kind:    c.def.Kind,
		Tasks:   make([]tableTask, len(c.tasks)),
		Pending: append([]int(nil), c.pending...),
	}
	for i, t := range c.tasks {
		tc := tableTask{Lo: t.lo, Hi: t.hi, Attempts: t.attempts,
			Cached: t.cached, LastFailed: t.lastFailed, Spill: t.spill}
		switch t.state {
		case taskPending:
			tc.State = "pending"
		case taskLeased:
			tc.State = "leased"
			tc.Lease, tc.Worker = t.leaseID, t.worker
		case taskDone:
			tc.State = "done"
		}
		tbl.Tasks[i] = tc
	}
	if c.failed != nil {
		tbl.Failed = c.failed.Error()
	}
	return tbl
}

// recordLocked logs one lease-table transition. Durability failures are
// logged once and disable further state writes; the in-memory sweep
// continues.
func (c *Coordinator) recordLocked(ev walEvent) {
	if err := c.st.append(ev); err != nil && !c.stateWarned {
		c.stateWarned = true
		c.logf("%v", err)
	}
}

// logf emits one progress line when a logger is configured.
func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// Plan returns the coordinator's sweep plan.
func (c *Coordinator) Plan() *destset.SweepPlan { return c.plan }

// Drain stops the coordinator granting leases: outstanding leases keep
// renewing and completing, but pending work stays queued — the graceful
// half of a shutdown, before exit. Every transition is already logged,
// so a coordinator over the same state dir resumes from exactly here.
// Progress reports the draining state.
func (c *Coordinator) Drain() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.draining {
		c.draining = true
		c.logf("draining: no further leases will be granted")
	}
}

// Close releases the coordinator's state files; an ephemeral
// coordinator's spill dir is removed, a durable one's state dir is left
// for the next incarnation to resume.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.close()
}

// SweepInfo is the handshake payload: everything a worker needs to
// reconstruct the sweep and verify it agrees with the coordinator.
type SweepInfo struct {
	// Plan is the coordinator's plan fingerprint; a worker recomputes it
	// from Def and must present it on every subsequent request.
	Plan string `json:"plan"`
	// Kind is destset.PlanKindTrace or destset.PlanKindTiming.
	Kind string `json:"kind"`
	// Cells and Tasks size the sweep.
	Cells int `json:"cells"`
	Tasks int `json:"tasks"`
	// LeaseTTLMs is the lease deadline in milliseconds; workers
	// heartbeat at a third of it.
	LeaseTTLMs int64 `json:"lease_ttl_ms"`
	// Def is the serializable sweep definition.
	Def destset.SweepDef `json:"def"`
	// Datasets pre-announces the shared datasets the sweep replays, so
	// workers pointed at a warm dataset directory resolve them all
	// before leasing any cells.
	Datasets []destset.SweepDataset `json:"datasets,omitempty"`
	// DatasetKeys are the coordinator's content addresses for Datasets,
	// one per dataset in announcement order. A worker recomputes each
	// key from the announced dataset and must agree before fetching —
	// the dataset analogue of the plan fingerprint handshake.
	DatasetKeys []string `json:"dataset_keys,omitempty"`
}

// Info returns the handshake payload.
func (c *Coordinator) Info() SweepInfo {
	return SweepInfo{
		Plan:        c.plan.Fingerprint(),
		Kind:        c.def.Kind,
		Cells:       c.plan.Len(),
		Tasks:       len(c.tasks),
		LeaseTTLMs:  c.cfg.LeaseTTL.Milliseconds(),
		Def:         c.def,
		Datasets:    c.datasets,
		DatasetKeys: c.dsetKeys,
	}
}

// wireDataset is one fetchable dataset: its definition plus the path of
// its materialized serving file ("" until the first success). mu makes
// concurrent fetchers of one key share one materialization.
type wireDataset struct {
	sd   destset.SweepDataset
	mu   sync.Mutex
	path string
}

// DatasetPath resolves a content key to the on-disk dataset file the
// fetch endpoint streams, materializing it when needed: an existing
// valid file in the dataset dir is served as-is, otherwise the dataset
// is generated and spilled there (or, with no dataset dir configured,
// next to the coordinator's spill files). Only success is remembered: a
// failed materialization is retried by the next fetch, and a serving
// file that has since vanished is materialized again. Unknown keys —
// anything this sweep does not replay — are refused, so the endpoint
// can never be used to make a coordinator generate arbitrary datasets.
func (c *Coordinator) DatasetPath(key string) (string, error) {
	wd, ok := c.wire[key]
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrUnknownDataset, key)
	}
	wd.mu.Lock()
	defer wd.mu.Unlock()
	if wd.path != "" {
		if _, err := os.Stat(wd.path); err == nil {
			return wd.path, nil
		}
	}
	dir := c.cfg.DatasetDir
	if dir == "" {
		dir = c.st.spillDir
	}
	path, err := wd.sd.SpillTo(dir)
	if err != nil {
		return "", fmt.Errorf("distrib: materializing dataset %s: %w", key, err)
	}
	wd.path = path
	c.logf("dataset %s ready at %s", key, path)
	return path, nil
}

// Lease is one granted cell range.
type Lease struct {
	ID string `json:"id"`
	// Lo and Hi bound the plan cell indices [Lo, Hi) this lease covers.
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// TTLMs is how long the lease lives without a heartbeat.
	TTLMs int64 `json:"ttl_ms"`
}

// LeaseReply is the lease endpoint's response: a grant, "nothing to
// grant right now, poll again", "the sweep is done", or "the sweep
// failed".
type LeaseReply struct {
	Done   bool   `json:"done,omitempty"`
	Failed string `json:"failed,omitempty"`
	Lease  *Lease `json:"lease,omitempty"`
}

// checkPlan refuses requests from workers on a different plan.
func (c *Coordinator) checkPlan(planFP string) error {
	if planFP != c.plan.Fingerprint() {
		return fmt.Errorf("%w: request presented %q, coordinator serves %q",
			ErrPlanMismatch, planFP, c.plan.Fingerprint())
	}
	return nil
}

// expireLocked re-queues every leased range whose deadline has passed.
// Expiry is lazy — evaluated on each lease/progress call — so the
// coordinator needs no background timer; idle-polling workers drive it.
// The scan covers only the currently-leased set (bounded by the fleet
// size), not the whole task list.
func (c *Coordinator) expireLocked(now time.Time) {
	for i := range c.leased {
		t := c.tasks[i]
		if now.After(t.deadline) {
			c.logf("lease %s (worker %s) expired; requeued cells [%d,%d) after %d attempt(s)",
				t.leaseID, t.worker, t.lo, t.hi, t.attempts)
			c.recordLocked(walEvent{E: "expire", Task: i, Lease: t.leaseID, Worker: t.worker})
			t.lastFailed = t.worker
			c.requeueLocked(i)
		}
	}
}

// requeueLocked returns a leased range to the front of the queue, so
// retries run before untouched work.
func (c *Coordinator) requeueLocked(ti int) {
	t := c.tasks[ti]
	t.state = taskPending
	t.leaseID, t.worker, t.deadline = "", "", time.Time{}
	delete(c.leased, ti)
	c.leasedCells -= t.hi - t.lo
	c.pending = append([]int{ti}, c.pending...)
}

// failLocked marks the whole sweep failed and releases waiters.
func (c *Coordinator) failLocked(err error) {
	if c.failed == nil {
		c.failed = err
		c.logf("sweep failed: %v", err)
		c.recordLocked(walEvent{E: "sweepfail", Reason: err.Error()})
		close(c.done)
	}
}

// Lease grants the requesting worker the next pending cell range. A nil
// Lease with Done false means nothing is grantable right now (everything
// is leased out, or the coordinator is draining) — poll again. Re-grants
// of a failed range prefer a worker other than the one that last failed
// it when any other pending work exists.
func (c *Coordinator) Lease(worker, planFP string) (LeaseReply, error) {
	if err := c.checkPlan(planFP); err != nil {
		return LeaseReply{}, err
	}
	if worker == "" {
		return LeaseReply{}, fmt.Errorf("%w: lease request needs a worker name", ErrBadRequest)
	}
	now := c.cfg.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workers[worker] = now
	if c.failed != nil {
		return LeaseReply{Failed: c.failed.Error()}, nil
	}
	c.expireLocked(now)
	if c.doneTasks == len(c.tasks) {
		return LeaseReply{Done: true}, nil
	}
	if c.draining || len(c.pending) == 0 {
		return LeaseReply{}, nil
	}
	// Mild anti-affinity: skip ranges this worker already failed when
	// something else is pending.
	pick := 0
	for i, ti := range c.pending {
		if c.tasks[ti].lastFailed != worker {
			pick = i
			break
		}
	}
	ti := c.pending[pick]
	c.pending = append(c.pending[:pick], c.pending[pick+1:]...)
	t := c.tasks[ti]
	if t.attempts >= c.cfg.MaxAttempts {
		c.failLocked(fmt.Errorf("distrib: cells [%d,%d) failed %d attempts (last worker %s)",
			t.lo, t.hi, t.attempts, t.lastFailed))
		return LeaseReply{Failed: c.failed.Error()}, nil
	}
	t.attempts++
	t.state = taskLeased
	t.worker = worker
	t.deadline = now.Add(c.cfg.LeaseTTL)
	c.leased[ti] = true
	c.leasedCells += t.hi - t.lo
	c.nextLease++
	// Lease ids are namespaced by the state epoch, so a resumed
	// coordinator can never re-issue an id a prior incarnation granted.
	t.leaseID = fmt.Sprintf("lease-%d-%d", c.st.epoch, c.nextLease)
	c.leases[t.leaseID] = ti
	c.recordLocked(walEvent{E: "grant", Task: ti, Lease: t.leaseID, Worker: worker, Attempts: t.attempts})
	c.logf("%s: cells [%d,%d) -> worker %s (attempt %d)", t.leaseID, t.lo, t.hi, worker, t.attempts)
	return LeaseReply{Lease: &Lease{ID: t.leaseID, Lo: t.lo, Hi: t.hi, TTLMs: c.cfg.LeaseTTL.Milliseconds()}}, nil
}

// Heartbeat extends a current lease's deadline. ErrLeaseGone means the
// lease expired and was re-queued — the worker should abandon the range.
func (c *Coordinator) Heartbeat(leaseID, worker, planFP string) error {
	if err := c.checkPlan(planFP); err != nil {
		return err
	}
	now := c.cfg.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workers[worker] = now
	ti, ok := c.leases[leaseID]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownLease, leaseID)
	}
	t := c.tasks[ti]
	if t.state != taskLeased || t.leaseID != leaseID || now.After(t.deadline) {
		return fmt.Errorf("%w: %s over cells [%d,%d)", ErrLeaseGone, leaseID, t.lo, t.hi)
	}
	t.deadline = now.Add(c.cfg.LeaseTTL)
	return nil
}

// Fail reports a lease the worker could not complete; its range is
// re-queued immediately instead of waiting out the deadline. Stale
// lease ids (already expired, already completed) are acknowledged
// silently — the queue has moved on.
func (c *Coordinator) Fail(leaseID, worker, planFP, reason string) error {
	if err := c.checkPlan(planFP); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workers[worker] = c.cfg.Now()
	ti, ok := c.leases[leaseID]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownLease, leaseID)
	}
	t := c.tasks[ti]
	if t.state == taskLeased && t.leaseID == leaseID {
		c.logf("%s: worker %s failed cells [%d,%d): %s", leaseID, worker, t.lo, t.hi, reason)
		c.recordLocked(walEvent{E: "fail", Task: ti, Lease: leaseID, Worker: worker, Reason: reason})
		t.lastFailed = worker
		c.requeueLocked(ti)
	}
	return nil
}

// CompleteReply reports what happened to an uploaded completion.
type CompleteReply struct {
	// Accepted means this upload is the range's accepted result.
	Accepted bool `json:"accepted"`
	// Duplicate means the range was already completed (first complete
	// wins); the upload was read and discarded.
	Duplicate bool `json:"duplicate,omitempty"`
	// DoneCells and Done report sweep progress after this completion.
	DoneCells int  `json:"done_cells"`
	Done      bool `json:"done"`
}

// Complete uploads a lease's JSONL observation records: the request body
// is streamed line by line, each record attributed to its plan cell and
// checked against the lease's range, and the range's cells must all be
// covered — a partial stream (an interrupted worker flushing what it
// had) is rejected and the range re-queued. A validated upload is
// spilled to disk before the range is marked done — the coordinator
// never retains records in memory. The first valid completion of a
// range wins, whether or not its lease is still current: a worker
// finishing just after its lease expired still contributes, and the
// re-granted duplicate is discarded on arrival.
func (c *Coordinator) Complete(leaseID, worker, planFP string, body io.Reader) (CompleteReply, error) {
	if err := c.checkPlan(planFP); err != nil {
		return CompleteReply{}, err
	}
	c.mu.Lock()
	c.workers[worker] = c.cfg.Now()
	ti, ok := c.leases[leaseID]
	if !ok {
		c.mu.Unlock()
		return CompleteReply{}, fmt.Errorf("%w: %q", ErrUnknownLease, leaseID)
	}
	t := c.tasks[ti]
	if t.state == taskDone {
		reply := CompleteReply{Duplicate: true, DoneCells: c.doneCells, Done: c.doneTasks == len(c.tasks)}
		c.mu.Unlock()
		io.Copy(io.Discard, body)
		return reply, nil
	}
	lo, hi := t.lo, t.hi
	spillDir, kind, fp := c.st.spillDir, c.def.Kind, c.plan.Fingerprint()
	c.mu.Unlock()

	// Parse and spill outside the lock: uploads may be large and slow,
	// and other workers must keep leasing meanwhile. Racing completions
	// for the same range spill byte-identical files (records arrive in
	// plan order) and serialize at the commit below; the first one in
	// wins.
	perCell, err := c.readRecords(lo, hi, body)
	if err != nil {
		// The upload was unusable; put the range back in play if this
		// lease still holds it.
		c.Fail(leaseID, worker, planFP, err.Error())
		return CompleteReply{}, err
	}
	name, err := writeSpill(spillDir, kind, fp, lo, hi, perCell)
	if err != nil {
		c.Fail(leaseID, worker, planFP, err.Error())
		return CompleteReply{}, err
	}

	// Feed the result store too (best-effort, still outside the lock) so
	// a later sweep sharing these cells starts warm.
	if c.cfg.Results != nil {
		for i, lines := range perCell {
			cfp := c.plan.Cell(lo + i).Fingerprint
			if serr := c.cfg.Results.StoreCellLines(kind, cfp, lines); serr != nil {
				c.logf("result-store spill for cell %d: %v", lo+i, serr)
			}
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if t.state == taskDone {
		return CompleteReply{Duplicate: true, DoneCells: c.doneCells, Done: c.doneTasks == len(c.tasks)}, nil
	}
	switch t.state {
	case taskPending:
		// Expired and re-queued but not re-granted: withdraw it.
		for i, pi := range c.pending {
			if pi == ti {
				c.pending = append(c.pending[:i], c.pending[i+1:]...)
				break
			}
		}
	case taskLeased:
		delete(c.leased, ti)
		c.leasedCells -= t.hi - t.lo
	}
	t.state = taskDone
	t.spill = name
	t.leaseID, t.worker, t.deadline = "", "", time.Time{}
	c.doneTasks++
	c.doneCells += hi - lo
	c.recordLocked(walEvent{E: "complete", Task: ti, Lease: leaseID, Worker: worker, Spill: name})
	c.logf("%s: worker %s completed cells [%d,%d) — %d/%d cells done",
		leaseID, worker, lo, hi, c.doneCells, c.plan.Len())
	done := c.doneTasks == len(c.tasks)
	if done && c.failed == nil {
		close(c.done)
	}
	return CompleteReply{Accepted: true, DoneCells: c.doneCells, Done: done}, nil
}

// readRecords streams one upload, attributing every line to a plan cell
// and requiring the lease's range [lo, hi) to be exactly covered, in
// plan order: no foreign cells, no holes, and no line whose cell
// precedes the previous line's (workers upload in the plan order their
// runner delivers observations in). It returns the lines per cell
// (perCell[i] holds cell lo+i, in upload order) — the shape both the
// spill file and the result store want.
func (c *Coordinator) readRecords(lo, hi int, body io.Reader) ([][][]byte, error) {
	perCell := make([][][]byte, hi-lo)
	covered, prev := 0, lo
	br := bufio.NewReaderSize(body, 64*1024)
	line := 0
	for {
		raw, err := br.ReadBytes('\n')
		if len(raw) > 0 {
			line++
			raw = bytes.TrimSuffix(raw, []byte("\n"))
			raw = bytes.TrimSuffix(raw, []byte("\r"))
			if len(raw) > 0 {
				ci, cerr := c.cellOf(raw)
				if cerr != nil {
					return nil, fmt.Errorf("%w: upload line %d: %w", ErrBadRequest, line, cerr)
				}
				if ci < lo || ci >= hi {
					return nil, fmt.Errorf("%w: upload line %d names cell %d outside the leased range [%d,%d)",
						ErrBadRequest, line, ci, lo, hi)
				}
				if ci < prev {
					return nil, fmt.Errorf("%w: upload line %d names cell %d after cell %d, out of plan order",
						ErrBadRequest, line, ci, prev)
				}
				prev = ci
				if len(perCell[ci-lo]) == 0 {
					covered++
				}
				perCell[ci-lo] = append(perCell[ci-lo], append([]byte(nil), raw...))
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%w: reading upload: %w", ErrBadRequest, err)
		}
	}
	if covered != hi-lo {
		return nil, fmt.Errorf("%w: upload covers %d of %d leased cells — incomplete run", ErrBadRequest, covered, hi-lo)
	}
	return perCell, nil
}

// Progress is a point-in-time view of the sweep, served live at
// /v1/progress.
type Progress struct {
	Plan      string `json:"plan"`
	Kind      string `json:"kind"`
	Cells     int    `json:"cells"`
	DoneCells int    `json:"done_cells"`
	// CachedCells counts cells the result store served without leasing
	// (at plan build or resume); ComputedCells counts cells completed by
	// workers. CachedCells + ComputedCells == DoneCells.
	CachedCells   int `json:"cached_cells"`
	ComputedCells int `json:"computed_cells"`
	LeasedCells   int `json:"leased_cells"`
	PendingCells  int `json:"pending_cells"`
	// Workers counts workers seen within the last two lease TTLs.
	Workers int `json:"workers"`
	// DatasetBytesServed counts dataset bytes served over GET
	// /v1/dataset.
	DatasetBytesServed int64 `json:"dataset_bytes_served"`
	// Draining means the coordinator has stopped granting leases and is
	// waiting out the outstanding ones (graceful shutdown).
	Draining bool   `json:"draining,omitempty"`
	Done     bool   `json:"done"`
	Failed   string `json:"failed,omitempty"`
	// Results carries the coordinator's result-store counters when a
	// store is configured.
	Results *destset.ResultStats `json:"results,omitempty"`
}

// Progress reports the sweep's live state (and lazily expires overdue
// leases while at it).
func (c *Coordinator) Progress() Progress {
	now := c.cfg.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(now)
	p := Progress{
		Plan:               c.plan.Fingerprint(),
		Kind:               c.def.Kind,
		Cells:              c.plan.Len(),
		DoneCells:          c.doneCells,
		CachedCells:        c.cachedCells,
		ComputedCells:      c.doneCells - c.cachedCells,
		LeasedCells:        c.leasedCells,
		PendingCells:       c.plan.Len() - c.doneCells - c.leasedCells,
		Draining:           c.draining,
		Done:               c.doneTasks == len(c.tasks),
		DatasetBytesServed: c.dsBytes.Load(),
	}
	if c.cfg.Results != nil {
		stats := c.cfg.Results.Stats()
		p.Results = &stats
	}
	horizon := now.Add(-2 * c.cfg.LeaseTTL)
	for _, seen := range c.workers {
		if seen.After(horizon) {
			p.Workers++
		}
	}
	if c.failed != nil {
		p.Failed = c.failed.Error()
	}
	return p
}

// Wait blocks until every cell is complete, the sweep fails, or ctx
// ends. With no workers polling, expired leases are only noticed when
// the next request arrives — Wait itself never times a lease out.
func (c *Coordinator) Wait(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-c.done:
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failed
}

// WriteMerged writes the full-run JSONL observation file on w: one
// merged manifest followed by every record in plan order, byte-identical
// to the file the same sweep writes in one process at parallelism 1.
// Tasks partition the plan in order and every spill holds its range's
// records in plan order, so the records are the spills concatenated in
// task order: each goes through copySpill, which checks it whole as the
// range's result record before copying its records. A spill that fails
// is ErrStateCorrupt, and what was written to w must then be discarded.
func (c *Coordinator) WriteMerged(w io.Writer) error {
	c.mu.Lock()
	if c.failed != nil {
		c.mu.Unlock()
		return c.failed
	}
	if c.doneTasks != len(c.tasks) {
		c.mu.Unlock()
		return fmt.Errorf("distrib: sweep incomplete (%d/%d ranges done)", c.doneTasks, len(c.tasks))
	}
	// Completed tasks never change again, so they are read unlocked.
	tasks := c.tasks
	c.mu.Unlock()

	manifest, err := json.Marshal(c.plan.Manifest(0, 1))
	if err != nil {
		return fmt.Errorf("distrib: encoding merged manifest: %w", err)
	}
	bw := bufio.NewWriterSize(w, 64*1024)
	bw.Write(manifest)
	bw.WriteByte('\n')
	fp := c.plan.Fingerprint()
	for _, t := range tasks {
		if err := copySpill(bw, c.st.spillDir, t.spill, c.def.Kind, fp, t.lo, t.hi); err != nil {
			return err
		}
	}
	return bw.Flush()
}
