// Package sweep is the concurrency engine behind the public experiment
// API. Its plan executor (Execute) runs any subset of a sweep's cells —
// trace-driven (engine × workload × seed) or timing — over a worker
// pool, consults a result store, prewarms shared datasets, honors
// context cancellation, and delivers observations and results in plan
// order regardless of goroutine scheduling.
//
// Determinism comes from the shape of a cell, not from locking: every
// cell builds its own fresh engine and replays its workload's dataset
// through its own cursor, both pure functions of the cell's
// coordinates, so their results are reproducible at any parallelism.
// Storage may pass from a finished cell to a later one: an engine's
// release hands a predictor bank nobody else saw back to predictor's
// free list, and the next NewBank of its configuration resets it. That
// never happens while a cell uses the bank, and a reset bank trains and
// counts exactly as a new one, so no cell sees another's training,
// whatever order the banks change hands in. A dataset is immutable and
// shared by every cell of its (workload, seed); the runners materialize
// each one across the worker pool before cells run (Exec.Prepare). What
// the cells of one dataset share beyond that — the timing runner's
// warm-up snapshot and timed streams, built once and read-only after —
// must not change any cell's result; Release tells the caller when the
// last of them is done. Results are written to a slot indexed by the
// cell's position in the selected subset, then compacted in order.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"destset/internal/dataset"
	"destset/internal/protocol"
)

// Engine names a protocol engine and knows how to build a fresh,
// untrained instance for a system of the given size.
type Engine struct {
	// Label identifies the engine in results and observations. It need
	// not equal the built engine's Name().
	Label string
	// New builds a fresh engine. It is called once per cell, so every
	// cell trains and measures an independent instance. release, when
	// non-nil, is called once the cell has used the engine for the last
	// time, whether the cell completed or not; it may hand storage the
	// engine alone used on to a later cell.
	New func(nodes int) (eng protocol.Engine, release func(), err error)
}

// Workload names a shared dataset and the scale a cell replays it at.
type Workload struct {
	// Name identifies the workload in results and observations.
	Name string
	// Dataset returns the dataset the cells at seed replay: Warm misses
	// from its start, then Measure more, so it must hold at least
	// Warm+Measure. The same seed must yield the same dataset, and its
	// params fix the system's node count. The runners call it once per
	// (workload, seed) across the worker pool before any cell starts
	// (see Exec.Prewarm), so a generation runs at full parallelism
	// instead of serializing the cells that race to replay the same
	// dataset first.
	Dataset func(seed uint64) (*dataset.Dataset, error)
	// Warm misses train caches and predictors without being measured.
	Warm int
	// Measure misses are accounted.
	Measure int
}

// Observation is one measurement interval of one cell, streamed to the
// observer as the sweep runs.
type Observation struct {
	Engine   string // engine label
	Workload string
	Seed     uint64
	// Interval is the 0-based interval index within the cell.
	Interval int
	// Totals covers this interval only.
	Totals protocol.Totals
	// Cumulative covers the cell's whole measurement so far.
	Cumulative protocol.Totals
}

// Result is one completed cell.
type Result struct {
	Engine     string // engine label
	EngineName string // the built engine's Name()
	Workload   string
	Seed       uint64
	Totals     protocol.Totals
}

// ctxCheckStride bounds how many misses a cell processes between
// cancellation checks, so cancellation is prompt even on huge cells. It
// is also the longest chunk RunCell hands an engine at once.
const ctxCheckStride = 2048

// Cell is one coordinate of a sweep's cross-product: workload W, spec
// S (an engine, or a timing sim spec) and seed.
type Cell struct {
	W, S int
	Seed uint64
}

// Cross enumerates a cross-product in plan order, workload-major: for
// each workload, for each spec, for each seed. Every runner's cells and
// every plan's cell list come from it, so cell indices agree across
// processes and sweep kinds.
func Cross(workloads, specs int, seeds []uint64) []Cell {
	cells := make([]Cell, 0, workloads*specs*len(seeds))
	for w := 0; w < workloads; w++ {
		for s := 0; s < specs; s++ {
			for _, seed := range seeds {
				cells = append(cells, Cell{W: w, S: s, Seed: seed})
			}
		}
	}
	return cells
}

// PrewarmJob names a shared dataset a sweep's cells replay: workload
// W's at Seed.
type PrewarmJob struct {
	W    int
	Seed uint64
}

// Exec is one plan execution: which of the plan's cells to run, how to
// compute one, and where their results and observations go. R is a
// cell's result type and O its observation type; a kind whose cells emit
// a single observation each (timing) uses its result type for both.
type Exec[R, O any] struct {
	// Total is the plan length. Cells, when non-nil, lists the plan
	// indices to run (see subsetIndices); nil runs every cell.
	Total int
	Cells []int
	// Parallelism caps concurrently-running cells; <=0 means GOMAXPROCS.
	Parallelism int
	// Observe, when non-nil, receives the selected cells' observations in
	// plan order (see Execute). Calls are serialized; the observer need
	// not be concurrency-safe.
	Observe func(O)
	// Lookup, when non-nil, is asked once per selected cell, serially and
	// before anything runs, for a stored result: a non-nil result and its
	// observation stream replay in the cell's slot, and the cell is
	// neither prewarmed nor computed. Store, when non-nil, is offered
	// every computed cell with all the observations it emitted; it is
	// called from the worker pool and must be safe for concurrent use.
	Lookup func(i int) (*R, []O)
	Store  func(i int, res R, obs []O)
	// Prewarm, when non-nil, names the shared dataset cell i replays,
	// and Prepare materializes one. Before any cell computes, every
	// distinct source of the cells to compute is prepared across the
	// worker pool, so expensive one-time generation fans out instead of
	// serializing the first cells that race to replay the same dataset.
	// Store hits prepare nothing.
	Prewarm func(i int) PrewarmJob
	Prepare func(PrewarmJob) error
	// Release, when non-nil (with Prewarm), is called exactly once for
	// every source of the cells to compute, after its last computed cell
	// finishes, so whatever the cells of one source share can be dropped
	// as soon as none will use it. Sources whose cells are all store hits
	// are never released. On cancellation or a cell error every source
	// not yet released is released once the pool stops. It is called
	// from the worker pool and must be safe for concurrent use.
	Release func(PrewarmJob)
	// Compute runs cell i, handing each observation to emit as it is
	// made. It should abandon the cell promptly once ctx ends; a nil
	// result with a nil error skips the cell's slot.
	Compute func(ctx context.Context, i int, emit func(O)) (*R, error)
}

// Execute is the plan executor behind every runner. It runs x's
// selected cells across a worker pool and returns their results
// compacted in plan order, so a cell list's results keep the global
// order.
//
// Observations reach x.Observe in the plan order of the selected cells,
// at any parallelism. The oldest unfinished cell streams live — at
// parallelism 1 each observation is delivered while its cell runs —
// while the observations of cells that finish ahead of it are held and
// released once every earlier selected cell is done. No worker waits on
// delivery, and a store hit replays its stored stream in its own slot.
//
// Compute receives a derived context that Execute cancels on the first
// cell error, so in-flight cells abort promptly. On cancellation — from
// the caller's ctx or a failing cell — Execute still returns, and
// delivers in plan order, every completed cell, skipping the cells that
// did not complete, together with the first real error (or the
// context's). A selection or prewarm error returns before any delivery.
func Execute[R, O any](ctx context.Context, x Exec[R, O]) ([]R, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	subset, err := subsetIndices(x.Total, x.Cells)
	if err != nil {
		return nil, err
	}
	slots := make([]*R, len(subset))
	d := newDelivery(x.Observe, len(subset))
	todo := make([]int, 0, len(subset)) // positions in subset to compute
	for k, i := range subset {
		if x.Lookup != nil {
			if res, obs := x.Lookup(i); res != nil {
				slots[k] = res
				d.hit(k, obs)
				continue
			}
		}
		todo = append(todo, k)
	}
	var rel *releaser
	if x.Prewarm != nil {
		jobs := make([]PrewarmJob, 0, len(todo))
		users := make(map[PrewarmJob]int, len(todo))
		for _, k := range todo {
			j := x.Prewarm(subset[k])
			if users[j] == 0 {
				jobs = append(jobs, j)
			}
			users[j]++
		}
		if x.Release != nil {
			rel = &releaser{release: x.Release, jobs: jobs, users: users}
			defer rel.close()
		}
		if x.Prepare != nil {
			err := ForEach(ctx, len(jobs), x.Parallelism, func(j int) error { return x.Prepare(jobs[j]) })
			if err != nil {
				return nil, err
			}
		}
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		firstErr error
		errOnce  sync.Once
	)
	d.pump() // store hits at the head of the subset
	_ = ForEach(ctx, len(todo), x.Parallelism, func(j int) error {
		k := todo[j]
		var obs []O
		res, err := x.Compute(ctx, subset[k], func(o O) {
			if x.Store != nil {
				obs = append(obs, o)
			}
			d.emit(k, o)
		})
		if err != nil {
			// A cell failing only because the sweep is already cancelled
			// is a victim, not the cause; keep the first real error.
			if ctx.Err() == nil {
				errOnce.Do(func() { firstErr = err })
			}
			cancel()
			res = nil
		}
		if res != nil && x.Store != nil {
			x.Store(subset[k], *res, obs)
		}
		slots[k] = res
		d.finish(k, res != nil)
		if rel != nil {
			rel.done(x.Prewarm(subset[k]))
		}
		return nil
	})
	d.close()

	out := make([]R, 0, len(slots))
	for _, r := range slots {
		if r != nil {
			out = append(out, *r)
		}
	}
	if firstErr != nil {
		return out, firstErr
	}
	return out, ctx.Err()
}

// subsetIndices resolves the cells a run executes: every plan index
// when cells is nil, else cells itself, which must be strictly
// increasing indices into [0, total) — the result order is the plan
// order, and a duplicate would run a cell twice. An empty list runs
// nothing.
func subsetIndices(total int, cells []int) ([]int, error) {
	if cells == nil {
		cells = make([]int, total)
		for i := range cells {
			cells[i] = i
		}
		return cells, nil
	}
	prev := -1
	for _, i := range cells {
		if i < 0 || i >= total {
			return nil, fmt.Errorf("sweep: cell index %d out of range [0, %d)", i, total)
		}
		if i <= prev {
			return nil, fmt.Errorf("sweep: cell indices must be strictly increasing (%d after %d)", i, prev)
		}
		prev = i
	}
	return cells, nil
}

// releaser calls Release for a source once its last computed cell is
// done, and at close, once the pool has stopped, for every source whose
// cells did not all run.
type releaser struct {
	release func(PrewarmJob)
	jobs    []PrewarmJob // the sources of the cells to compute

	mu    sync.Mutex
	users map[PrewarmJob]int // computed cells not yet done, per source
}

// done records that one computed cell of source j finished.
func (r *releaser) done(j PrewarmJob) {
	r.mu.Lock()
	r.users[j]--
	last := r.users[j] == 0
	r.mu.Unlock()
	if last {
		r.release(j)
	}
}

// close releases, in plan order, every source not yet released.
func (r *releaser) close() {
	for _, j := range r.jobs {
		if r.users[j] > 0 {
			r.release(j)
		}
	}
}

// Cell states, as delivery tracks them.
const (
	unfinished = iota
	completed
	dropped // failed, abandoned or never run: its observations are skipped
)

// delivery puts a running sweep's observations into plan order. Cells
// are addressed by their position k in the selected subset. The head is
// the oldest unfinished position: its observations are delivered at
// once, every later cell's are held until the head passes it. Whichever
// goroutine finds observations ready delivers them, outside the lock,
// while the others only append and move on; a nil delivery (no
// observer) ignores every call.
type delivery[O any] struct {
	mu      sync.Mutex
	observe func(O)
	// delivering is set while a goroutine calls observe; it takes what
	// became ready meanwhile before clearing the flag, so calls stay
	// serialized and nothing is stranded.
	delivering bool
	head       int
	state      []uint8
	held       [][]O
}

func newDelivery[O any](observe func(O), n int) *delivery[O] {
	if observe == nil {
		return nil
	}
	return &delivery[O]{observe: observe, state: make([]uint8, n), held: make([][]O, n)}
}

// hit marks position k completed with a stored observation stream,
// before any cell runs.
func (d *delivery[O]) hit(k int, obs []O) {
	if d != nil {
		d.state[k], d.held[k] = completed, obs
	}
}

// emit queues one observation of position k and, at the head, delivers
// it.
func (d *delivery[O]) emit(k int, o O) {
	if d == nil {
		return
	}
	d.mu.Lock()
	d.held[k] = append(d.held[k], o)
	live := k == d.head
	d.mu.Unlock()
	if live {
		d.pump()
	}
}

// finish records position k's outcome and delivers what it unblocks.
func (d *delivery[O]) finish(k int, ok bool) {
	if d == nil {
		return
	}
	d.mu.Lock()
	d.state[k] = completed
	if !ok {
		d.state[k], d.held[k] = dropped, nil
	}
	d.mu.Unlock()
	d.pump()
}

// close drops every position that never finished, once the pool has
// stopped, which delivers the rest in plan order.
func (d *delivery[O]) close() {
	if d == nil {
		return
	}
	for k, s := range d.state {
		if s == unfinished {
			d.finish(k, false)
		}
	}
}

// pump delivers every ready observation unless another goroutine is
// already delivering.
func (d *delivery[O]) pump() {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.delivering {
		return
	}
	d.delivering = true
	for batch := d.ready(); len(batch) > 0; batch = d.ready() {
		d.mu.Unlock()
		for _, o := range batch {
			d.observe(o)
		}
		d.mu.Lock()
	}
	d.delivering = false
}

// ready takes the observations deliverable now: the head's, and those
// of every position the head moves past once finished. The caller holds
// mu.
func (d *delivery[O]) ready() []O {
	var batch []O
	for ; d.head < len(d.state); d.head++ {
		if batch == nil {
			batch = d.held[d.head]
		} else {
			batch = append(batch, d.held[d.head]...)
		}
		d.held[d.head] = nil
		if d.state[d.head] == unfinished {
			break
		}
	}
	return batch
}

// RunCell trains and measures engine e on workload w at one seed,
// handing each measurement interval's observation to emit (interval <= 0
// emits one observation for the whole cell). It replays the dataset's
// columns in ranges of at most ctxCheckStride misses
// (protocol.ProcessRange), cuts measured ranges at interval boundaries,
// checks for cancellation once per range and abandons the cell promptly
// when the context ends.
func RunCell(ctx context.Context, e Engine, w Workload, seed uint64, interval int, emit func(Observation)) (*Result, error) {
	if w.Dataset == nil {
		return nil, fmt.Errorf("sweep: workload %q has no dataset", w.Name)
	}
	if e.New == nil {
		return nil, fmt.Errorf("sweep: engine %q has no constructor", e.Label)
	}
	ds, err := w.Dataset(seed)
	if err != nil {
		return nil, fmt.Errorf("sweep: workload %q: %w", w.Name, err)
	}
	eng, release, err := e.New(ds.Nodes())
	if err != nil {
		return nil, fmt.Errorf("sweep: engine %q: %w", e.Label, err)
	}
	if release != nil {
		// Deferred, it runs after the result below has read eng.Name().
		defer release()
	}
	st := ds.Replay()
	for left := w.Warm; left > 0; {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		n := min(left, ctxCheckStride)
		c, lo, hi := st.Take(n)
		protocol.ProcessRange(eng, c, lo, hi, nil)
		left -= n
	}
	// chunk is declared once: the engine's range method gets its address,
	// so it lives on the heap.
	var cum, cur, chunk protocol.Totals
	intervalIdx := 0
	flush := func() {
		emit(Observation{
			Engine:     e.Label,
			Workload:   w.Name,
			Seed:       seed,
			Interval:   intervalIdx,
			Totals:     cur,
			Cumulative: cum,
		})
		intervalIdx++
		cur = protocol.Totals{}
	}
	for left := w.Measure; left > 0; {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		n := min(left, ctxCheckStride)
		if interval > 0 {
			n = min(n, interval-int(cur.Misses))
		}
		chunk = protocol.Totals{}
		c, lo, hi := st.Take(n)
		protocol.ProcessRange(eng, c, lo, hi, &chunk)
		cum.Merge(chunk)
		cur.Merge(chunk)
		left -= n
		if interval > 0 && cur.Misses >= uint64(interval) {
			flush()
		}
	}
	if cur.Misses > 0 || interval <= 0 {
		flush()
	}
	return &Result{
		Engine:     e.Label,
		EngineName: eng.Name(),
		Workload:   w.Name,
		Seed:       seed,
		Totals:     cum,
	}, nil
}

// ForEach runs fn(i) for every i in [0, n) across a worker pool of the
// given size (<=0 means GOMAXPROCS), stopping at the first error or at
// context cancellation. Callers get determinism by writing fn's output
// to slot i of a caller-owned slice.
func ForEach(ctx context.Context, n, parallelism int, fn func(i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if n <= 0 {
		return nil
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > n {
		parallelism = n
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		firstErr error
		errOnce  sync.Once
		wg       sync.WaitGroup
	)
	jobs := make(chan int)
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if ctx.Err() != nil {
					continue
				}
				if err := fn(i); err != nil {
					errOnce.Do(func() { firstErr = err })
					cancel()
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
