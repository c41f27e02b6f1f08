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
// The lease table holds no observation records: every accepted upload
// is written to a spill file at the address its range determines
// (spill.go), so without a result store the coordinator's residency is
// O(open leases) regardless of sweep size. A result store
// (Config.Results) is the exception: every cell it is fed or serves
// stays resident in its memory tier, which the coordinator never purges,
// so with one residency is O(cells). Uploads arrive in plan order and
// tasks partition the plan in order, so the final output is the merged
// manifest followed by the spills concatenated in task order, each
// checked whole as a result record before it is copied — byte-identical
// to what the same sweep writes in one process at parallelism 1, the
// invariant that makes the whole service testable end to end.
//
// The lease table is the coordinator's task list itself, and one
// function, apply, makes each of its transitions: a grant, expiry,
// failure, completion or sweep failure. A request builds its transition
// as an event, applies it and appends it to one log of result records in
// the state dir (wal.go), after the table as the coordinator started. A
// coordinator killed mid-sweep and restarted over the same -state-dir
// replays that log through the same apply, so it resumes exactly the
// table that was logged, under the same plan fingerprint, and then
// reconciles it: in-flight leases are requeued, completed ranges whose
// spills fail their check are recomputed, and ranges the result store
// serves whole are adopted. Without a -state-dir the coordinator runs
// the same path over a private temp dir, which Close removes.
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
	"slices"
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
	// StateDir holds the coordinator's state: spill files live under it,
	// the lease table and every transition after it are logged to its
	// wal.log, and a coordinator restarted over the same dir resumes the
	// sweep instead of restarting it. Empty means a private temp dir,
	// written the same way and removed by Close, so nothing survives the
	// process.
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
	// warm instead of recomputing. The store keeps every record it is
	// fed or serves resident in its memory tier until it is purged, and
	// the coordinator never purges it: with a store, the coordinator's
	// residency grows with the cells completed, not with the open leases.
	Results *destset.ResultStore
}

// taskState is one lease range's lifecycle position, named as the
// lease table names it.
type taskState string

const (
	taskPending taskState = "pending" // queued, waiting for a worker
	taskLeased  taskState = "leased"  // granted, deadline running
	taskDone    taskState = "done"    // first valid completion accepted
)

// task is one contiguous range of plan cell indices [Lo, Hi) — the unit
// of leasing, retry and completion — and its record in the lease table,
// under the table's JSON names. Tasks partition the plan: every cell
// belongs to exactly one task, and tasks are ordered by Lo.
type task struct {
	Lo    int       `json:"lo"`
	Hi    int       `json:"hi"`
	State taskState `json:"state"`
	// Attempts counts the grants so far.
	Attempts int `json:"attempts,omitempty"`
	// Cached marks ranges served by the result store rather than
	// computed by a worker.
	Cached bool `json:"cached,omitempty"`
	// Lease and Worker name the current grant (state taskLeased).
	Lease  string `json:"lease,omitempty"`
	Worker string `json:"worker,omitempty"`
	// LastFailed is the worker whose lease over this range last expired
	// or failed; re-grants prefer a different worker.
	LastFailed string `json:"last_failed,omitempty"`
	// deadline ends the current grant unless a heartbeat renews it. It
	// dies with the process, so the table does not hold it.
	deadline time.Time
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
	// tempState is the private state dir of a coordinator run without
	// Config.StateDir; Close removes it.
	tempState string

	// dsBytes counts dataset bytes served over GET /v1/dataset; HTTP
	// handlers write it outside mu.
	dsBytes atomic.Int64

	mu sync.Mutex
	st *walState
	// tbl is the lease table: the tasks, the pending queue (task
	// indices, back to front: the last is granted next) and the sweep's
	// failure. begin logs it as it stands, and apply makes every change
	// to it after that.
	tbl *leaseTable
	// leased holds the currently-granted task indices, so lazy expiry
	// scans O(outstanding leases), not O(all tasks).
	leased    map[int]bool
	leases    map[string]int // lease id -> task index, kept for the sweep's lifetime
	nextLease int
	// doneCells, cachedCells and leasedCells count the cells of done,
	// done and cached, and leased tasks; only count changes them.
	doneCells   int
	cachedCells int
	leasedCells int
	draining    bool
	stateWarned bool
	done        chan struct{} // closed when all tasks complete or the sweep fails
	workers     map[string]time.Time
}

// NewCoordinator validates the definition, computes the plan and splits
// it into lease ranges — or, when cfg.StateDir holds a prior
// incarnation's log for the same plan, resumes it: the logged events are
// replayed over the logged lease table (replay), then completed ranges
// are re-adopted after their spill files revalidate and in-flight
// leases are requeued (reconcile).
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
		done:     make(chan struct{}),
		workers:  make(map[string]time.Time),
	}

	dir := cfg.StateDir
	if dir == "" {
		if dir, err = os.MkdirTemp("", "destset-state-*"); err != nil {
			return nil, fmt.Errorf("distrib: creating state dir: %w", err)
		}
		c.tempState = dir
	}
	var tbl *leaseTable
	var events []walEvent
	c.st, tbl, events, err = openWALState(dir)
	switch {
	case err != nil:
	case tbl != nil:
		if err = c.replay(tbl, events); err == nil {
			c.reconcile()
		}
	default:
		err = c.build()
	}
	if err != nil {
		c.Close()
		return nil, err
	}

	if c.cachedCells > 0 {
		c.logf("result store served %d/%d cells; %d to compute",
			c.cachedCells, plan.Len(), plan.Len()-c.doneCells)
	}
	// Durable truth at birth: a new log that opens with the (re)built
	// lease table. A failure here disables durability but not the sweep.
	if err := c.st.begin(c.tbl); err != nil {
		c.stateWarned = true
		c.logf("%v", err)
	}
	if c.tbl.Failed != "" || c.doneCells == plan.Len() {
		close(c.done)
	}
	return c, nil
}

// build lays out a fresh sweep's lease table: contiguous runs of
// result-store hits become completed ranges (their spills synthesized
// from stored lines), the misses between them become chunked pending
// lease ranges.
func (c *Coordinator) build() error {
	plan := c.plan
	tbl := &leaseTable{Plan: plan.Fingerprint(), Kind: c.def.Kind}
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
			if err := c.spillStored(lo, hi); err != nil {
				return err
			}
			tbl.Tasks = append(tbl.Tasks, &task{Lo: lo, Hi: hi, State: taskDone, Cached: true})
			lo = hi
			continue
		}
		hi := lo + 1
		for hi < plan.Len() && hi-lo < c.cfg.ChunkSize && !(hit != nil && hit[hi]) {
			hi++
		}
		tbl.Pending = append(tbl.Pending, len(tbl.Tasks))
		tbl.Tasks = append(tbl.Tasks, &task{Lo: lo, Hi: hi, State: taskPending})
		lo = hi
	}
	slices.Reverse(tbl.Pending) // the first range at the queue's front
	return c.install(tbl)
}

// spillStored synthesizes the spill file for a range fully served by
// the result store.
func (c *Coordinator) spillStored(lo, hi int) error {
	perCell := make([][][]byte, hi-lo)
	for i := lo; i < hi; i++ {
		lines, ok := c.cfg.Results.CellLines(c.def.Kind, c.plan.Cell(i).Fingerprint)
		if !ok {
			return fmt.Errorf("distrib: result store no longer serves cell %d", i)
		}
		perCell[i-lo] = lines
	}
	return writeSpill(c.st.spillDir, c.def.Kind, c.plan.Fingerprint(), lo, hi, perCell)
}

// replay takes over the lease table a prior incarnation logged and
// applies the events logged after it, in order, through apply — the
// function the requests that made them went through — so the table it
// leaves is the one that incarnation last had. Replay is strict: a
// table that is not this plan's, or an event that does not apply,
// means the state dir is corrupt, and recovery refuses rather than
// guesses.
func (c *Coordinator) replay(tbl *leaseTable, events []walEvent) error {
	if fp := c.plan.Fingerprint(); tbl.Plan != fp || tbl.Kind != c.def.Kind {
		return fmt.Errorf("distrib: state dir %q holds a %s sweep with plan %s, not this %s sweep (plan %s) — resume must use the same def",
			c.cfg.StateDir, tbl.Kind, tbl.Plan, c.def.Kind, fp)
	}
	if err := c.install(tbl); err != nil {
		return err
	}
	for i, ev := range events {
		if err := c.apply(ev); err != nil {
			return fmt.Errorf("%w: logged event %d (%s): %v", ErrStateCorrupt, i, ev.E, err)
		}
	}
	return nil
}

// install makes tbl the coordinator's lease table once it checks out:
// its tasks partition the plan in order, each in a known state, and its
// queue holds pending tasks only. It indexes the leased tasks and counts
// every task's cells.
func (c *Coordinator) install(tbl *leaseTable) error {
	c.tbl = tbl
	c.leased, c.leases = make(map[int]bool), make(map[string]int)
	next := 0
	for ti, t := range tbl.Tasks {
		if t == nil || t.Lo != next || t.Hi <= t.Lo || t.Hi > c.plan.Len() {
			return fmt.Errorf("%w: lease table task %d does not continue a partition of the plan at cell %d",
				ErrStateCorrupt, ti, next)
		}
		next = t.Hi
		switch t.State {
		case taskLeased:
			c.leased[ti] = true
			c.leases[t.Lease] = ti
		case taskPending, taskDone:
		default:
			return fmt.Errorf("%w: lease table task %d in unknown state %q", ErrStateCorrupt, ti, t.State)
		}
		c.count(t, 1)
	}
	if next != c.plan.Len() {
		return fmt.Errorf("%w: lease table tasks cover %d of %d plan cells", ErrStateCorrupt, next, c.plan.Len())
	}
	for _, ti := range tbl.Pending {
		if ti < 0 || ti >= len(tbl.Tasks) || tbl.Tasks[ti].State != taskPending {
			return fmt.Errorf("%w: lease table queues task %d, which is not pending", ErrStateCorrupt, ti)
		}
	}
	return nil
}

// reconcile settles a replayed table with what outlived its
// incarnation. The deadlines died with it, so every in-flight lease is
// requeued, attempts unchanged: a surviving worker's heartbeats get
// ErrLeaseGone, but a completion it uploads for the old lease id is
// still adopted. A completed range stays completed only if the spill at
// its address still validates whole. And pending ranges the result
// store can serve whole — typically uploads whose complete event was
// lost to the crash but whose cells were already store-spilled —
// complete without leasing.
func (c *Coordinator) reconcile() {
	fp := c.plan.Fingerprint()
	requeued, demoted, adopted := 0, 0, 0
	for ti := len(c.tbl.Tasks) - 1; ti >= 0; ti-- {
		if c.tbl.Tasks[ti].State == taskLeased {
			c.move(ti, taskPending)
			requeued++
		}
	}
	for ti := len(c.tbl.Tasks) - 1; ti >= 0; ti-- {
		t := c.tbl.Tasks[ti]
		if t.State != taskDone {
			continue
		}
		if err := copySpill(io.Discard, c.st.spillDir, c.def.Kind, fp, t.Lo, t.Hi); err != nil {
			c.logf("spill for cells [%d,%d) failed validation; recomputing: %v", t.Lo, t.Hi, err)
			c.move(ti, taskPending)
			t.Cached = false
			demoted++
		}
	}
	if c.cfg.Results != nil && c.tbl.Failed == "" {
		for _, ti := range slices.Backward(slices.Clone(c.tbl.Pending)) {
			t := c.tbl.Tasks[ti]
			if c.spillStored(t.Lo, t.Hi) == nil {
				t.Cached = true
				c.move(ti, taskDone)
				adopted++
			}
		}
	}
	c.logf("resumed sweep %s from %s (epoch %d): %d/%d cells done, %d lease(s) requeued, %d range(s) demoted, %d adopted from result store",
		fp, c.cfg.StateDir, c.st.epoch, c.doneCells, c.plan.Len(), requeued, demoted, adopted)
}

// apply makes the lease-table transition ev names — a grant, expiry,
// failure, completion or sweep failure. Requests build their event and
// commit it (commitLocked), and replay applies the logged ones, so the
// live table and its replay change through the same code; only
// reconcile, before the table is logged, moves tasks otherwise. An
// event that does not fit the table, such as the expiry of a lease that
// is not current, changes nothing and is an error.
func (c *Coordinator) apply(ev walEvent) error {
	if ev.E == "sweepfail" {
		if ev.Reason == "" {
			return errors.New("sweepfail without a reason")
		}
		c.tbl.Failed = ev.Reason
		return nil
	}
	if ev.Task < 0 || ev.Task >= len(c.tbl.Tasks) {
		return fmt.Errorf("task %d out of range", ev.Task)
	}
	t := c.tbl.Tasks[ev.Task]
	switch {
	case ev.E == "grant" && t.State == taskPending:
		c.move(ev.Task, taskLeased)
		t.Attempts, t.Lease, t.Worker = ev.Attempts, ev.Lease, ev.Worker
		c.leases[ev.Lease] = ev.Task
	case (ev.E == "expire" || ev.E == "fail") && t.State == taskLeased && t.Lease == ev.Lease:
		t.LastFailed = ev.Worker
		c.move(ev.Task, taskPending)
	case ev.E == "complete" && t.State != taskDone:
		t.Cached = false
		c.move(ev.Task, taskDone)
	default:
		return fmt.Errorf("does not fit task %d (state %s, lease %q)", ev.Task, t.State, t.Lease)
	}
	return nil
}

// move puts task ti in state to and keeps the pending queue, the leased
// set and the counters in step: a task leaves the queue when it is
// granted or completed and rejoins it at the front, so retries run
// before untouched work, and a task that is no longer leased drops its
// grant. The queue's front is the slice's end, where grants find their
// task first. A task's Cached flag may change only while it is not
// done.
func (c *Coordinator) move(ti int, to taskState) {
	t := c.tbl.Tasks[ti]
	c.count(t, -1)
	switch t.State {
	case taskPending:
		for i := len(c.tbl.Pending) - 1; i >= 0; i-- {
			if c.tbl.Pending[i] == ti {
				c.tbl.Pending = slices.Delete(c.tbl.Pending, i, i+1)
				break
			}
		}
	case taskLeased:
		delete(c.leased, ti)
		t.Lease, t.Worker, t.deadline = "", "", time.Time{}
	}
	switch t.State = to; to {
	case taskPending:
		c.tbl.Pending = append(c.tbl.Pending, ti)
	case taskLeased:
		c.leased[ti] = true
	}
	c.count(t, 1)
}

// count adds t's cells to the counters of its state (sign 1) or takes
// them away (sign -1).
func (c *Coordinator) count(t *task, sign int) {
	n := sign * (t.Hi - t.Lo)
	switch t.State {
	case taskLeased:
		c.leasedCells += n
	case taskDone:
		c.doneCells += n
		if t.Cached {
			c.cachedCells += n
		}
	}
}

// commitLocked applies a transition a request makes and logs it,
// reporting whether it applied. Durability failures are logged once and
// disable further state writes; the in-memory sweep continues.
func (c *Coordinator) commitLocked(ev walEvent) bool {
	if c.apply(ev) != nil {
		return false
	}
	if err := c.st.append(ev); err != nil && !c.stateWarned {
		c.stateWarned = true
		c.logf("%v", err)
	}
	return true
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

// Close releases the coordinator's state files. A Config.StateDir is
// left for the next incarnation to resume; the private temp dir of a
// coordinator run without one is removed.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var err error
	if c.st != nil {
		err = c.st.close()
	}
	if c.tempState != "" {
		err = errors.Join(err, os.RemoveAll(c.tempState))
	}
	return err
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
		Tasks:       len(c.tbl.Tasks),
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
	for ti := range c.leased {
		t := c.tbl.Tasks[ti]
		if now.After(t.deadline) {
			c.logf("lease %s (worker %s) expired; requeued cells [%d,%d) after %d attempt(s)",
				t.Lease, t.Worker, t.Lo, t.Hi, t.Attempts)
			c.commitLocked(walEvent{E: "expire", Task: ti, Lease: t.Lease, Worker: t.Worker})
		}
	}
}

// failLocked marks the whole sweep failed and releases waiters.
func (c *Coordinator) failLocked(err error) {
	if c.tbl.Failed == "" {
		c.logf("sweep failed: %v", err)
		c.commitLocked(walEvent{E: "sweepfail", Reason: err.Error()})
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
	if c.tbl.Failed != "" {
		return LeaseReply{Failed: c.tbl.Failed}, nil
	}
	c.expireLocked(now)
	if c.doneCells == c.plan.Len() {
		return LeaseReply{Done: true}, nil
	}
	if c.draining || len(c.tbl.Pending) == 0 {
		return LeaseReply{}, nil
	}
	// Mild anti-affinity: skip ranges this worker already failed when
	// something else is pending. The queue's front is the slice's end.
	ti := c.tbl.Pending[len(c.tbl.Pending)-1]
	for _, pi := range slices.Backward(c.tbl.Pending) {
		if c.tbl.Tasks[pi].LastFailed != worker {
			ti = pi
			break
		}
	}
	t := c.tbl.Tasks[ti]
	if t.Attempts >= c.cfg.MaxAttempts {
		c.failLocked(fmt.Errorf("distrib: cells [%d,%d) failed %d attempts (last worker %s)",
			t.Lo, t.Hi, t.Attempts, t.LastFailed))
		return LeaseReply{Failed: c.tbl.Failed}, nil
	}
	// Lease ids are namespaced by the state epoch, so a resumed
	// coordinator can never re-issue an id a prior incarnation granted.
	c.nextLease++
	id := fmt.Sprintf("lease-%d-%d", c.st.epoch, c.nextLease)
	c.commitLocked(walEvent{E: "grant", Task: ti, Lease: id, Worker: worker, Attempts: t.Attempts + 1})
	t.deadline = now.Add(c.cfg.LeaseTTL)
	c.logf("%s: cells [%d,%d) -> worker %s (attempt %d)", id, t.Lo, t.Hi, worker, t.Attempts)
	return LeaseReply{Lease: &Lease{ID: id, Lo: t.Lo, Hi: t.Hi, TTLMs: c.cfg.LeaseTTL.Milliseconds()}}, nil
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
	t := c.tbl.Tasks[ti]
	if t.State != taskLeased || t.Lease != leaseID || now.After(t.deadline) {
		return fmt.Errorf("%w: %s over cells [%d,%d)", ErrLeaseGone, leaseID, t.Lo, t.Hi)
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
	if c.commitLocked(walEvent{E: "fail", Task: ti, Lease: leaseID, Worker: worker, Reason: reason}) {
		t := c.tbl.Tasks[ti]
		c.logf("%s: worker %s failed cells [%d,%d): %s", leaseID, worker, t.Lo, t.Hi, reason)
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
	t := c.tbl.Tasks[ti]
	if t.State == taskDone {
		reply := CompleteReply{Duplicate: true, DoneCells: c.doneCells, Done: c.doneCells == c.plan.Len()}
		c.mu.Unlock()
		io.Copy(io.Discard, body)
		return reply, nil
	}
	lo, hi := t.Lo, t.Hi
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
	if err := writeSpill(spillDir, kind, fp, lo, hi, perCell); err != nil {
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
	if !c.commitLocked(walEvent{E: "complete", Task: ti, Lease: leaseID, Worker: worker}) {
		return CompleteReply{Duplicate: true, DoneCells: c.doneCells, Done: c.doneCells == c.plan.Len()}, nil
	}
	c.logf("%s: worker %s completed cells [%d,%d) — %d/%d cells done",
		leaseID, worker, lo, hi, c.doneCells, c.plan.Len())
	done := c.doneCells == c.plan.Len()
	if done && c.tbl.Failed == "" {
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
		Done:               c.doneCells == c.plan.Len(),
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
	p.Failed = c.tbl.Failed
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
	if c.tbl.Failed != "" {
		return errors.New(c.tbl.Failed)
	}
	return nil
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
	failed, doneCells := c.tbl.Failed, c.doneCells
	// Completed tasks never change again, so they are read unlocked.
	tasks := c.tbl.Tasks
	c.mu.Unlock()
	switch {
	case failed != "":
		return errors.New(failed)
	case doneCells != c.plan.Len():
		return fmt.Errorf("distrib: sweep incomplete (%d/%d cells done)", doneCells, c.plan.Len())
	}

	manifest, err := json.Marshal(c.plan.Manifest(0, 1))
	if err != nil {
		return fmt.Errorf("distrib: encoding merged manifest: %w", err)
	}
	bw := bufio.NewWriterSize(w, 64*1024)
	bw.Write(manifest)
	bw.WriteByte('\n')
	fp := c.plan.Fingerprint()
	for _, t := range tasks {
		if err := copySpill(bw, c.st.spillDir, c.def.Kind, fp, t.Lo, t.Hi); err != nil {
			return err
		}
	}
	return bw.Flush()
}
