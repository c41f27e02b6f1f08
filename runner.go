package destset

import (
	"context"
	"fmt"
	"slices"

	"destset/internal/sweep"
)

// Default measurement scale applied to WorkloadSpecs that do not set
// their own, matching the paper's reduced-scale methodology (§4).
const (
	DefaultWarmMisses    = 50_000
	DefaultMeasureMisses = 50_000
)

// Observation is one measurement interval of one sweep cell, streamed
// to observers while the sweep runs. Totals covers the interval alone;
// Cumulative covers the cell's measurement so far.
type Observation = sweep.Observation

// Observer receives per-interval observations. The Runner serializes
// calls, so observers need not be concurrency-safe; see WithObserver
// for the delivery order.
type Observer func(Observation)

// RunResult is one completed sweep cell: an engine evaluated on a
// workload at one seed, aggregated into a tradeoff point.
type RunResult struct {
	// Engine is the engine spec's display label.
	Engine string
	// Workload names the workload (preset name or spec label).
	Workload string
	// Seed is the workload generation seed of this cell.
	Seed uint64
	// Totals is the raw per-miss accounting aggregate.
	Totals Totals
	// Tradeoff is the cell's point on the latency/bandwidth plane;
	// Tradeoff.Config carries the built engine's Name().
	Tradeoff TradeoffResult
}

type runnerConfig struct {
	seeds       []uint64
	warm        int
	measure     int
	interval    int
	parallelism int
	// cells, when non-nil, restricts the run to a list of plan indices
	// (see WithCells).
	cells    []int
	observer Observer
	// timingObserver streams per-cell timing observations; it is only
	// consulted by the TimingRunner (see WithTimingObserver).
	timingObserver TimingObserver
	// resultStore, when non-nil, serves completed cells and absorbs
	// freshly-computed ones (see WithResultStore); nil falls back to the
	// shared store once SetResultDir has armed it.
	resultStore *ResultStore
}

// RunnerOption tunes a Runner.
type RunnerOption func(*runnerConfig)

// WithSeeds sets the workload seeds swept per (engine, workload) pair;
// the default is the single seed 1.
func WithSeeds(seeds ...uint64) RunnerOption {
	return func(c *runnerConfig) { c.seeds = append([]uint64(nil), seeds...) }
}

// WithWarmup sets the default warmup misses for workloads that do not
// set their own (default DefaultWarmMisses).
func WithWarmup(n int) RunnerOption {
	return func(c *runnerConfig) { c.warm = n }
}

// WithMeasure sets the default measured misses for workloads that do
// not set their own (default DefaultMeasureMisses).
func WithMeasure(n int) RunnerOption {
	return func(c *runnerConfig) { c.measure = n }
}

// WithInterval sets the observation granularity in misses. 0 (the
// default) emits a single observation per cell when an observer is set.
func WithInterval(misses int) RunnerOption {
	return func(c *runnerConfig) { c.interval = misses }
}

// WithParallelism caps how many sweep cells run concurrently; values
// below 1 restore the default (GOMAXPROCS). Results are identical at
// every parallelism.
func WithParallelism(n int) RunnerOption {
	return func(c *runnerConfig) { c.parallelism = n }
}

// WithObserver streams per-interval observations to fn while the sweep
// runs.
//
// Observations arrive in the plan order of the selected cells at any
// parallelism, so a JSONL sink writes the same bytes at parallelism 1
// and N. The oldest unfinished cell streams live — at parallelism 1
// each interval is delivered while its cell runs — and the
// observations of cells that finish ahead of it are held, then
// released once every earlier selected cell is done; no worker waits
// on delivery and there is no window to size. A result-store hit
// replays its stored stream in its own slot. On cancellation or a
// failing cell every completed cell is still delivered, in plan order,
// and cells that did not complete are skipped.
func WithObserver(fn Observer) RunnerOption {
	return func(c *runnerConfig) { c.observer = fn }
}

// WithCells restricts the run to a strictly increasing list of plan
// cell indices (see Plan for the index space): a shard's
// (SweepPlan.ShardIndices), a distributed worker's leased range, or any
// other subset of the plan. Give each process the same specs and
// options plus its own list, and reassemble the full-run stream with
// MergeObservations / cmd/sweepmerge or SweepPlan.MergeStreams. Results
// keep the global plan order. An empty list runs no cell; only nil
// restores the default full run. Out-of-range, duplicate or unsorted
// indices fail at Run.
func WithCells(indices []int) RunnerOption {
	return func(c *runnerConfig) { c.cells = slices.Clone(indices) }
}

// Runner fans a []EngineSpec × []WorkloadSpec × seeds cross-product
// over a worker pool. Every cell builds a fresh engine, and Name- and
// Params-based workloads resolve through the process-wide dataset
// store: each (workload, seed, scale) trace is generated once — across
// cells, Runners and experiment harnesses alike — and every cell
// replays it through its own zero-copy cursor. Cells therefore share
// no mutable state and results are deterministic regardless of
// goroutine scheduling: Run returns the same results in the same order
// at parallelism 1 and parallelism N, byte-identical to regenerating
// the stream per cell.
type Runner struct {
	engines   []EngineSpec
	workloads []WorkloadSpec
	cfg       runnerConfig
}

// newRunnerConfig applies opts over the runners' shared defaults — the
// one place those defaults live, so a Runner, a TimingRunner and a
// SweepDef built from the same options agree on the effective seeds and
// scale (and therefore on the plan fingerprint).
func newRunnerConfig(opts []RunnerOption) runnerConfig {
	cfg := runnerConfig{
		seeds:   []uint64{1},
		warm:    DefaultWarmMisses,
		measure: DefaultMeasureMisses,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	if len(cfg.seeds) == 0 {
		cfg.seeds = []uint64{1}
	}
	return cfg
}

// NewRunner builds a sweep over the cross-product of engine and
// workload specs.
func NewRunner(engines []EngineSpec, workloads []WorkloadSpec, opts ...RunnerOption) *Runner {
	return &Runner{
		engines:   append([]EngineSpec(nil), engines...),
		workloads: append([]WorkloadSpec(nil), workloads...),
		cfg:       newRunnerConfig(opts),
	}
}

// Run executes the sweep and returns one RunResult per cell, ordered
// workload-major: for each workload, for each engine, for each seed.
// Under WithCells only the listed cells run, and their results keep the
// global order. A nil ctx means context.Background(). On cancellation
// Run returns promptly with the completed cells (still in order) and
// the context's error.
func (r *Runner) Run(ctx context.Context) ([]RunResult, error) {
	if len(r.engines) == 0 || len(r.workloads) == 0 {
		return nil, fmt.Errorf("destset: Runner needs at least one engine spec and one workload spec")
	}
	engines := make([]sweep.Engine, len(r.engines))
	for i, e := range r.engines {
		if err := e.validate(); err != nil {
			return nil, err
		}
		engines[i] = e.sweepEngine()
	}
	workloads := make([]sweep.Workload, len(r.workloads))
	for i, w := range r.workloads {
		sw, err := w.resolve(r.cfg.warm, r.cfg.measure)
		if err != nil {
			return nil, err
		}
		workloads[i] = sw
	}
	cells := sweep.Cross(len(workloads), len(engines), r.cfg.seeds)
	results, err := execute(ctx, r.cfg, r.Plan, workloads, cells, (*ResultStore).traceCell, (*ResultStore).putTraceCell,
		sweep.Exec[sweep.Result, Observation]{
			Observe: r.cfg.observer,
			Compute: func(ctx context.Context, i int, emit func(Observation)) (*sweep.Result, error) {
				c := cells[i]
				return sweep.RunCell(ctx, engines[c.S], workloads[c.W], c.Seed, r.cfg.interval, emit)
			},
		})
	out := make([]RunResult, len(results))
	for i, res := range results {
		out[i] = RunResult{
			Engine:   res.Engine,
			Workload: res.Workload,
			Seed:     res.Seed,
			Totals:   res.Totals,
			Tradeoff: TradeoffResult{
				Config:             res.EngineName,
				RequestMsgsPerMiss: res.Totals.RequestMsgsPerMiss(),
				IndirectionPercent: res.Totals.IndirectionPercent(),
				BytesPerMiss:       res.Totals.BytesPerMiss(),
			},
		}
	}
	return out, err
}

// execute runs one runner's plan through the sweep executor. x carries
// the kind's observer and compute function; execute adds what both
// kinds share: the options' cell selection and parallelism, the prewarm
// of each cell's shared dataset through its resolved workload, and —
// when a result store is attached — the store hooks, which address cell
// i by its plan fingerprint through the kind's record codec (get and
// put).
func execute[R, O any](ctx context.Context, cfg runnerConfig, plan func() (*SweepPlan, error), workloads []sweep.Workload,
	cells []sweep.Cell, get func(*ResultStore, PlanCell) (*R, []O), put func(*ResultStore, string, R, []O), x sweep.Exec[R, O]) ([]R, error) {
	x.Total, x.Cells, x.Parallelism = len(cells), cfg.cells, cfg.parallelism
	x.Prewarm = func(i int) sweep.PrewarmJob { return sweep.PrewarmJob{W: cells[i].W, Seed: cells[i].Seed} }
	x.Prepare = func(j sweep.PrewarmJob) error {
		w := workloads[j.W]
		if _, err := w.Dataset(j.Seed); err != nil {
			return fmt.Errorf("sweep: workload %q: %w", w.Name, err)
		}
		return nil
	}
	if rs := cfg.resolveResultStore(); rs != nil {
		p, err := plan()
		if err != nil {
			return nil, err
		}
		x.Lookup = func(i int) (*R, []O) { return get(rs, p.Cell(i)) }
		x.Store = func(i int, res R, obs []O) { put(rs, p.Cell(i).Fingerprint, res, obs) }
	}
	return sweep.Execute(ctx, x)
}

// Evaluate runs a single (engine, workload) cell — the one-call version
// of the Runner for a single tradeoff point. Unlike EvaluatePolicy it
// reaches every registered protocol engine, including the Acacio-style
// predictive-directory hybrid:
//
//	Evaluate(ctx,
//	    EngineSpec{Protocol: ProtocolPredictiveDirectory, PolicyName: "owner"},
//	    WorkloadSpec{Name: "oltp"})
func Evaluate(ctx context.Context, engine EngineSpec, workload WorkloadSpec, opts ...RunnerOption) (TradeoffResult, error) {
	res, err := NewRunner([]EngineSpec{engine}, []WorkloadSpec{workload}, opts...).Run(ctx)
	if err != nil {
		return TradeoffResult{}, err
	}
	if len(res) != 1 {
		return TradeoffResult{}, fmt.Errorf("destset: expected one result, got %d", len(res))
	}
	return res[0].Tradeoff, nil
}
