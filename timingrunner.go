package destset

import (
	"context"
	"fmt"
	"sync"

	"destset/internal/dataset"
	"destset/internal/sim"
	"destset/internal/sweep"
	"destset/internal/trace"
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

// timingSources opens one timing cell's warm and timed sources at a
// seed.
type timingSources func(seed uint64) (warm, timed sim.Source, err error)

// resolveTiming resolves a WorkloadSpec for the timing path: the sweep
// workload resolve builds — whose prepare hook materializes the shared
// dataset ahead of the cells — plus each cell's timing sources. Name-
// and Params-based workloads replay the shared dataset's columns
// zero-copy (dataset.Region); custom Open sources are drained once per
// cell into materialized traces, since the timing simulator needs
// random access for its reorder-buffer window.
func (w WorkloadSpec) resolveTiming(defaultWarm, defaultMeasure int) (sweep.Workload, timingSources, error) {
	sw, err := w.resolve(defaultWarm, defaultMeasure)
	if err != nil {
		return sw, nil, err
	}
	warm, measure := sw.Warm, sw.Measure
	if measure == 0 {
		return sw, nil, fmt.Errorf("destset: timing workload %q needs measured misses", sw.Name)
	}
	if w.Open != nil {
		return sw, func(seed uint64) (sim.Source, sim.Source, error) {
			st, err := w.Open(seed)
			if err != nil {
				return nil, nil, err
			}
			warmTr := &trace.Trace{Nodes: sw.Nodes, Records: make([]trace.Record, 0, warm)}
			timedTr := &trace.Trace{Nodes: sw.Nodes, Records: make([]trace.Record, 0, measure)}
			for i := 0; i < warm; i++ {
				rec, _ := st.Next()
				warmTr.Append(rec)
			}
			for i := 0; i < measure; i++ {
				rec, _ := st.Next()
				timedTr.Append(rec)
			}
			return sim.TraceSource(warmTr), sim.TraceSource(timedTr), nil
		}, nil
	}
	return sw, func(seed uint64) (sim.Source, sim.Source, error) {
		p, err := w.paramsAt(seed)
		if err != nil {
			return nil, nil, err
		}
		d, err := dataset.GetShared(p, warm, measure)
		if err != nil {
			return nil, nil, err
		}
		var warmSrc sim.Source
		if warm > 0 {
			warmSrc = d.WarmRegion()
		}
		return warmSrc, d.MeasureRegion(), nil
	}, nil
}

// TimingRunner fans a []SimSpec × []WorkloadSpec × seeds cross-product
// of execution-driven timing simulations over a worker pool — the timing
// analogue of Runner. Every cell resolves a fresh sim.Config from its
// spec; Name- and Params-based workloads resolve through the shared
// dataset store and are replayed zero-copy by any number of concurrent
// cells.
//
// Within one Run, the cells of a (workload, seed) share its warm-up: the
// first to run replays the warm region and keeps a snapshot of the
// coherence oracle, the others restore it and train their own predictors
// (sim.Warmup), and the snapshot is dropped after the last computed cell
// of that (workload, seed). Cells take their oracles from a free list
// that holds one per worker. A restored cell equals a replayed one
// exactly, so Run returns the same results in the same order at
// parallelism 1 and parallelism N, and each equals the cell's one-call
// sim.Simulate value.
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
// Under WithShard only that shard's cells run; the results keep the
// global order, so MergeResults reassembles shard outputs into the exact
// full-run slice. A nil ctx falls back to WithContext, then
// context.Background(). On cancellation Run returns promptly with the
// completed cells (still in order) and the context's error; the
// execution-driven cells themselves check the context, so even a single
// huge simulation aborts promptly.
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
	sources := make([]timingSources, len(r.workloads))
	for i, w := range r.workloads {
		var err error
		if workloads[i], sources[i], err = w.resolveTiming(r.cfg.warm, r.cfg.measure); err != nil {
			return nil, err
		}
	}
	cells := sweep.Cross(len(workloads), len(r.sims), r.cfg.seeds)
	var (
		oracles sim.Oracles
		mu      sync.Mutex
		warmups = map[sweep.PrewarmJob]*sim.Warmup{}
	)
	// warmup returns the warm-up the cells of job share, made from the
	// first cell's warm source: every cell of a job replays the same one.
	warmup := func(job sweep.PrewarmJob, src sim.Source) *sim.Warmup {
		if src == nil {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		w := warmups[job]
		if w == nil {
			w = sim.NewWarmup(src)
			warmups[job] = w
		}
		return w
	}
	return execute(ctx, r.cfg, r.Plan, r.workloads, workloads, cells, (*ResultStore).timingCell, (*ResultStore).putTimingCell,
		sweep.Exec[TimingResult, TimingObservation]{
			Observe: r.cfg.timingObserver,
			Release: func(job sweep.PrewarmJob) {
				mu.Lock()
				defer mu.Unlock()
				delete(warmups, job)
			},
			Compute: func(ctx context.Context, i int, emit func(TimingObservation)) (*TimingResult, error) {
				c := cells[i]
				spec, w := r.sims[c.S], workloads[c.W]
				cfg, err := spec.Resolve(w.Nodes)
				if err != nil {
					return nil, err
				}
				warmSrc, timedSrc, err := sources[c.W](c.Seed)
				if err != nil {
					return nil, fmt.Errorf("destset: workload %q: %w", w.Name, err)
				}
				job := sweep.PrewarmJob{W: c.W, Seed: c.Seed}
				res, err := sim.SimulateWarm(ctx, cfg, warmup(job, warmSrc), timedSrc, &oracles)
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
