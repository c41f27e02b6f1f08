// Package experiments contains one harness per table and figure of the
// paper's evaluation. Each harness regenerates the same rows or series
// the paper reports:
//
//	Table 2    — workload properties (§2.2)
//	Figure 2   — instantaneous sharing histogram (§2.4)
//	Figure 3   — degree of sharing (§2.5)
//	Figure 4   — temporal/spatial locality of sharing misses (§2.6)
//	Figure 5   — predictor policy tradeoff, all workloads (§4.3)
//	Figure 6   — OLTP sensitivity: PC indexing, macroblocks, size (§4.4)
//	Figure 7   — runtime vs traffic, simple processor model (§5.3)
//	Figure 8   — runtime vs traffic, detailed processor model (§5.3)
//
// Every harness names its workloads in the process-wide dataset store
// (internal/dataset) and runs one destset.SweepDef: a figure's cells are
// listed once, in its def, and the panels, the -json stream, a shard and
// a distributed worker all run that same plan, through the shared
// result store when one is armed. Table 2 and Figures 2-4 read the
// store's datasets directly.
//
// The CLI tools in cmd/ and the repository benchmarks are thin wrappers
// over these functions.
package experiments

import (
	"context"
	"fmt"

	"destset"
	"destset/internal/dataset"
	"destset/internal/nodeset"
	"destset/internal/predictor"
	"destset/internal/trace"
	"destset/internal/workload"
)

// Options control experiment scale. The paper warms 1M misses and
// measures millions; the defaults here are scaled down to run the full
// suite in minutes while preserving every qualitative shape. Raise them
// via the CLI flags for closer quantitative agreement.
type Options struct {
	// Seed drives all workload generation.
	Seed uint64
	// WarmMisses are generated before measurement to warm caches and
	// predictors (§2.1).
	WarmMisses int
	// Misses are measured for the trace-driven experiments (§2, §4).
	Misses int
	// TimedWarmMisses and TimedMisses size the slower execution-driven
	// runs (§5).
	TimedWarmMisses int
	// TimedMisses is the number of misses in the timed region.
	TimedMisses int
	// Workloads restricts the benchmark set (default: the paper's six).
	Workloads []string
	// ExtraWorkloads appends value-described workload specs — imported
	// trace datasets or composed parameter sets — to Figure 5 and
	// Figures 7/8: their panels, sweeps, defs and plans (Figure5,
	// TradeoffSweep*, Figure7, Figure8, TimingSweep*). Each spec is used
	// verbatim: its Warm/Measure must match the dataset it names. Table
	// 2, Figures 2-4 and 6, the extensions and the ablations ignore them.
	ExtraWorkloads []destset.WorkloadSpec
	// Protocols restricts the execution-driven protocol configurations
	// (§5), matched against SimSpec display labels: "snooping",
	// "directory", "multicast+group", or policy shorthands like "owner".
	// Empty keeps all six Figure 7/8 configurations.
	Protocols []string
	// Parallelism caps concurrently-evaluated sweep cells and dataset
	// generations; <=0 uses GOMAXPROCS. Results are identical at every
	// parallelism.
	Parallelism int
	// TimingObserver, when set, streams every execution-driven cell
	// (protocol × workload × seed) to the observer as it completes —
	// wire destset.NewJSONLObserver(w).ObserveTiming here to spill
	// timing sweeps as JSON Lines.
	TimingObserver destset.TimingObserver
	// Observer, when set, streams every trace-driven sweep cell to the
	// observer — the trace analogue of TimingObserver, wired to
	// destset.NewJSONLObserver(w).Observe by cmd/traceeval -json.
	Observer destset.Observer
}

// DefaultOptions returns the scale used for the committed EXPERIMENTS.md
// results.
func DefaultOptions() Options {
	return Options{
		Seed:            1,
		WarmMisses:      300_000,
		Misses:          300_000,
		TimedWarmMisses: 100_000,
		TimedMisses:     100_000,
	}
}

// QuickOptions returns a reduced scale for tests and benchmarks.
func QuickOptions() Options {
	return Options{
		Seed:            1,
		WarmMisses:      40_000,
		Misses:          40_000,
		TimedWarmMisses: 15_000,
		TimedMisses:     15_000,
	}
}

// names returns the selected workload names: Options.Workloads, or
// the paper's six.
func (o Options) names() []string {
	if len(o.Workloads) > 0 {
		return o.Workloads
	}
	return workload.PaperNames()
}

// workloads resolves the selected workloads' parameters at the option
// set's seed.
func (o Options) workloads() ([]workload.Params, error) {
	names := o.names()
	out := make([]workload.Params, 0, len(names))
	for _, n := range names {
		p, err := workload.Preset(n, o.Seed)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// explicitScale marks a zero miss count as "explicitly none" for
// WorkloadSpec, whose 0 means "inherit the runner default".
func explicitScale(n int) int {
	if n == 0 {
		return -1
	}
	return n
}

// named names each workload in the shared dataset store at one scale:
// every sweep cell of a (workload, seed, scale) replays the one dataset
// the store generates or loads for it.
func named(names []string, warm, measure int) []destset.WorkloadSpec {
	out := make([]destset.WorkloadSpec, len(names))
	for i, n := range names {
		out[i] = destset.WorkloadSpec{Name: n, Warm: explicitScale(warm), Measure: explicitScale(measure)}
	}
	return out
}

// DatasetWorkload names a dataset in the shared store: the workload
// spec whose cells replay exactly ds, at ds's own warm/measure split.
func DatasetWorkload(ds *dataset.Dataset) destset.WorkloadSpec {
	p := ds.Params()
	return destset.WorkloadSpec{
		Name:    p.Name,
		Params:  &p,
		Warm:    explicitScale(ds.Warm()),
		Measure: explicitScale(ds.Measure()),
	}
}

// runOptions are the process-local runner options of every sweep: the
// parallelism, the observers, and the plan cells to run (nil for all).
// A Runner consults only the trace observer and a TimingRunner only the
// timing one.
func (o Options) runOptions(cells []int) []destset.RunnerOption {
	opts := []destset.RunnerOption{destset.WithParallelism(o.Parallelism), destset.WithCells(cells)}
	if o.Observer != nil {
		opts = append(opts, destset.WithObserver(o.Observer))
	}
	if o.TimingObserver != nil {
		opts = append(opts, destset.WithTimingObserver(o.TimingObserver))
	}
	return opts
}

// runTrace executes the given plan cells of a trace-driven sweep
// definition (nil runs every cell) and returns their results in plan
// order.
func (o Options) runTrace(ctx context.Context, def destset.SweepDef, cells []int) ([]destset.RunResult, error) {
	r, err := def.Runner(o.runOptions(cells)...)
	if err != nil {
		return nil, err
	}
	return r.Run(ctx)
}

// runTiming is runTrace's execution-driven twin.
func (o Options) runTiming(ctx context.Context, def destset.SweepDef, cells []int) ([]destset.TimingResult, error) {
	r, err := def.TimingRunner(o.runOptions(cells)...)
	if err != nil {
		return nil, err
	}
	return r.Run(ctx)
}

// baselineSpecs returns the two protocol extremes every figure anchors
// on: broadcast snooping and the directory protocol.
func baselineSpecs() []destset.EngineSpec {
	return []destset.EngineSpec{
		{Protocol: destset.ProtocolSnooping},
		{Protocol: destset.ProtocolDirectory},
	}
}

// standoutSpecs returns the paper's four policies at the standout
// configuration (8192 entries, 1024-byte macroblocks, §4.3) as engine
// specs for the public Runner.
func standoutSpecs() []destset.EngineSpec {
	policies := []predictor.Policy{
		predictor.Owner,
		predictor.BroadcastIfShared,
		predictor.Group,
		predictor.OwnerGroup,
	}
	specs := make([]destset.EngineSpec, len(policies))
	for i, pol := range policies {
		specs[i] = destset.EngineSpec{Policy: pol, UsePolicy: true}
	}
	return specs
}

// traceWorkloads names workloads at the trace-driven scale.
func (o Options) traceWorkloads(names ...string) []destset.WorkloadSpec {
	return named(names, o.WarmMisses, o.Misses)
}

// traceDef crosses engine specs with workloads at the option set's seed.
func (o Options) traceDef(specs []destset.EngineSpec, workloads []destset.WorkloadSpec) destset.SweepDef {
	return destset.NewTraceSweepDef(specs, workloads, destset.WithSeeds(o.Seed))
}

// panels runs a one-seed trace sweep definition and converts each cell
// into a tradeoff point: one panel per workload, points in spec order.
func (o Options) panels(def destset.SweepDef) ([]WorkloadTradeoff, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	res, err := o.runTrace(context.Background(), def, nil)
	if err != nil {
		return nil, err
	}
	n := len(def.Engines)
	if len(res) != n*len(def.Workloads) {
		return nil, fmt.Errorf("experiments: sweep returned %d cells, want %d", len(res), n*len(def.Workloads))
	}
	out := make([]WorkloadTradeoff, len(def.Workloads))
	for wi := range out {
		cells := res[wi*n : (wi+1)*n]
		pts := make([]TradeoffPoint, n)
		for i, r := range cells {
			pts[i] = TradeoffPoint{
				Config:         r.Tradeoff.Config,
				MsgsPerMiss:    r.Tradeoff.RequestMsgsPerMiss,
				IndirectionPct: r.Tradeoff.IndirectionPercent,
				BytesPerMiss:   r.Tradeoff.BytesPerMiss,
			}
		}
		out[wi] = WorkloadTradeoff{Workload: cells[0].Workload, Points: pts}
	}
	return out, nil
}

// requesterOf is a small helper shared by the harnesses.
func requesterOf(rec trace.Record) nodeset.NodeID { return nodeset.NodeID(rec.Requester) }

// validateScale rejects degenerate experiment sizes early.
func (o Options) validate() error {
	if o.Misses <= 0 || o.WarmMisses < 0 || o.TimedMisses <= 0 || o.TimedWarmMisses < 0 {
		return fmt.Errorf("experiments: non-positive scale in %+v", o)
	}
	return nil
}
