package destset

import (
	"context"
	"fmt"
	"sync"

	"destset/internal/sim"
	"destset/internal/sweep"
)

// TimingResult is one completed timing cell: a SimSpec simulated over a
// workload at one seed.
type TimingResult struct {
	// Sim is the sim spec's display label.
	Sim string
	// Config is the resolved configuration's Name() — the label the
	// paper-figure harnesses print (e.g. "Multicast+Group[1024B,8192e]").
	Config string
	// Workload names the workload (preset name or spec label).
	Workload string
	// Seed is the workload generation seed of this cell.
	Seed uint64
	// CPU names the processor model ("simple" or "detailed").
	CPU string
	// Result is the full timing outcome: runtime, traffic, latency
	// percentiles, retries.
	Result SimResult
}

// TimingObservation is one timing cell's result, streamed to observers
// the moment the cell completes — the timing analogue of Observation.
// Unlike the trace-driven sweep there are no intra-cell intervals: the
// execution-driven model's metrics (runtime, queuing) only exist once
// the cell's event queue drains, so each cell emits exactly one
// observation.
type TimingObservation = TimingResult

// TimingObserver receives per-cell timing observations. The TimingRunner
// serializes calls, so observers need not be concurrency-safe.
type TimingObserver func(TimingObservation)

// WithTimingObserver streams each completed timing cell to fn while the
// sweep runs. It has no effect on the trace-driven Runner.
//
// Observations arrive in the plan order of the selected cells at any
// parallelism, so a JSONL sink writes the same bytes at parallelism 1
// and N. At parallelism 1 each cell is delivered as it completes; at
// parallelism N a cell that completes ahead of an earlier one is held
// until every earlier selected cell is done — no worker waits for it —
// and a result-store hit is delivered in its own slot. On cancellation
// every completed cell is still delivered, in plan order; cells that
// did not complete are skipped.
func WithTimingObserver(fn TimingObserver) RunnerOption {
	return func(c *runnerConfig) { c.timingObserver = fn }
}

// TimingRunner fans a []SimSpec × []WorkloadSpec × seeds cross-product
// of execution-driven timing simulations over a worker pool — the timing
// analogue of Runner. Every cell resolves a fresh sim.Config from its
// spec for its dataset's node count; workloads resolve through the
// shared dataset store, and any number of concurrent cells replay a
// dataset's warm and measured regions zero-copy.
//
// Within one Run, the cells of a (workload, seed) share one sim.Job over
// its dataset's regions: the first to run replays the warm region,
// keeping a snapshot of the coherence oracle and the warm misses it
// recorded, and lays out the timed region's per-node streams; the others restore the snapshot,
// train their own predictors over the recorded misses and replay the
// same streams. The job is dropped after the last computed cell of that
// (workload, seed). Cells take their run shells — oracle, event loop,
// crossbar links, transaction slab, message pool — from a free list that
// holds one per worker, so a cell builds only its predictor bank. A
// restored cell equals a replayed one exactly, so Run returns the same
// results in the same order at parallelism 1 and parallelism N, and each
// equals the cell's one-call sim.Simulate value.
type TimingRunner struct {
	sims      []SimSpec
	workloads []WorkloadSpec
	cfg       runnerConfig
}

// NewTimingRunner builds a timing sweep over the cross-product of sim
// and workload specs. It accepts the Runner's functional options; the
// trace-driven-only ones (WithInterval, WithObserver) are ignored — use
// WithTimingObserver to stream per-cell timing observations.
func NewTimingRunner(sims []SimSpec, workloads []WorkloadSpec, opts ...RunnerOption) *TimingRunner {
	return &TimingRunner{
		sims:      append([]SimSpec(nil), sims...),
		workloads: append([]WorkloadSpec(nil), workloads...),
		cfg:       newRunnerConfig(opts),
	}
}

// Run executes the sweep and returns one TimingResult per cell, ordered
// workload-major: for each workload, for each sim spec, for each seed.
// Under WithCells only the listed cells run, and their results keep the
// global order. A nil ctx means context.Background(). On cancellation
// Run returns promptly with the completed cells (still in order) and
// the context's error; the execution-driven cells themselves check the
// context, so even a single huge simulation aborts promptly.
func (r *TimingRunner) Run(ctx context.Context) ([]TimingResult, error) {
	if len(r.sims) == 0 || len(r.workloads) == 0 {
		return nil, fmt.Errorf("destset: TimingRunner needs at least one sim spec and one workload spec")
	}
	for _, s := range r.sims {
		if err := s.validate(); err != nil {
			return nil, err
		}
	}
	workloads := make([]sweep.Workload, len(r.workloads))
	for i, w := range r.workloads {
		sw, err := w.resolve(r.cfg.warm, r.cfg.measure)
		if err != nil {
			return nil, err
		}
		if sw.Measure == 0 {
			return nil, fmt.Errorf("destset: timing workload %q needs measured misses", sw.Name)
		}
		workloads[i] = sw
	}
	cells := sweep.Cross(len(workloads), len(r.sims), r.cfg.seeds)
	var (
		shells sim.Shells
		mu     sync.Mutex
		jobs   = map[sweep.PrewarmJob]*sim.Job{}
	)
	// jobOf returns the job the cells of key share, made from the regions
	// of the dataset its first cell fetches: every cell of a key replays
	// the same regions.
	jobOf := func(key sweep.PrewarmJob) (*sim.Job, error) {
		mu.Lock()
		j := jobs[key]
		mu.Unlock()
		if j != nil {
			return j, nil
		}
		ds, err := workloads[key.W].Dataset(key.Seed)
		if err != nil {
			return nil, err
		}
		var warm sim.Source
		if ds.Warm() > 0 {
			warm = ds.WarmRegion()
		}
		mu.Lock()
		defer mu.Unlock()
		if j = jobs[key]; j == nil {
			j = sim.NewJob(warm, ds.MeasureRegion())
			jobs[key] = j
		}
		return j, nil
	}
	return execute(ctx, r.cfg, r.Plan, workloads, cells, (*ResultStore).timingCell, (*ResultStore).putTimingCell,
		sweep.Exec[TimingResult, TimingObservation]{
			Observe: r.cfg.timingObserver,
			Release: func(key sweep.PrewarmJob) {
				mu.Lock()
				defer mu.Unlock()
				delete(jobs, key)
			},
			Compute: func(ctx context.Context, i int, emit func(TimingObservation)) (*TimingResult, error) {
				c := cells[i]
				spec, w := r.sims[c.S], workloads[c.W]
				job, err := jobOf(sweep.PrewarmJob{W: c.W, Seed: c.Seed})
				if err != nil {
					return nil, fmt.Errorf("destset: workload %q: %w", w.Name, err)
				}
				cfg, err := spec.Resolve(job.Nodes())
				if err != nil {
					return nil, err
				}
				res, err := sim.SimulateWarm(ctx, cfg, job, &shells)
				if err != nil {
					return nil, err
				}
				tr := &TimingResult{
					Sim:      spec.DisplayLabel(),
					Config:   cfg.Name(),
					Workload: w.Name,
					Seed:     c.Seed,
					CPU:      cfg.CPU.String(),
					Result:   res,
				}
				emit(*tr)
				return tr, nil
			},
		})
}

// EvaluateTiming runs a single (sim, workload) timing cell — the
// one-call version of the TimingRunner:
//
//	EvaluateTiming(ctx,
//	    SimSpec{Protocol: ProtocolMulticast, Policy: Group, UsePolicy: true},
//	    WorkloadSpec{Name: "oltp"})
func EvaluateTiming(ctx context.Context, spec SimSpec, workload WorkloadSpec, opts ...RunnerOption) (SimResult, error) {
	res, err := NewTimingRunner([]SimSpec{spec}, []WorkloadSpec{workload}, opts...).Run(ctx)
	if err != nil {
		return SimResult{}, err
	}
	if len(res) != 1 {
		return SimResult{}, fmt.Errorf("destset: expected one result, got %d", len(res))
	}
	return res[0].Result, nil
}
